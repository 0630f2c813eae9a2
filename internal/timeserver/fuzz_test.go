package timeserver

import (
	"bytes"
	"testing"
)

// FuzzDecodeReport: DecodeReport never panics on a datagram from the wire,
// and an accepted report re-encodes to the raw datagram, so the site and
// frame it yields are the ones that were sent.
func FuzzDecodeReport(f *testing.F) {
	f.Add(EncodeReport(1, 123456))
	f.Add(EncodeReport(0, 0))
	f.Add([]byte{msgReport, 255, 0xFF, 0xFF, 0xFF, 0xFF}) // the largest site and frame; fits any int width
	f.Add([]byte{msgReport})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, raw []byte) {
		site, frame, err := DecodeReport(raw)
		if err != nil {
			return
		}
		if re := EncodeReport(site, frame); !bytes.Equal(re, raw) {
			t.Fatalf("re-encode differs from raw:\n  raw %x\n  re  %x", raw, re)
		}
	})
}
