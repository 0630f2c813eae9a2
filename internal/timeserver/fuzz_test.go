package timeserver

import (
	"bytes"
	"testing"
)

// FuzzDecodeReport: DecodeReport never panics on a datagram from the wire,
// an accepted report's frame is not negative on any int width, and it
// re-encodes to the raw datagram, so the site and frame it yields are the
// ones that were sent.
func FuzzDecodeReport(f *testing.F) {
	f.Add(EncodeReport(1, 123456))
	f.Add(EncodeReport(0, 0))
	f.Add([]byte{msgReport, 255, 0xFF, 0xFF, 0xFF, 0x7F}) // the largest site and frame
	f.Add([]byte{msgReport, 255, 0x00, 0x00, 0x00, 0x80}) // frame 2^31: malformed
	f.Add([]byte{msgReport})
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, raw []byte) {
		site, frame, err := DecodeReport(raw)
		if err != nil {
			return
		}
		if frame < 0 {
			t.Fatalf("%x decoded to frame %d", raw, frame)
		}
		if re := EncodeReport(site, frame); !bytes.Equal(re, raw) {
			t.Fatalf("re-encode differs from raw:\n  raw %x\n  re  %x", raw, re)
		}
	})
}
