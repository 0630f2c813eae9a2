package replay

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzDecodeLog throws arbitrary bytes at the RKRP parser, which romtool
// verify feeds files from disk. Decode must never panic, and whatever it
// accepts re-encodes to a log that decodes to the same value and the same
// bytes (decode∘encode∘decode identity).
func FuzzDecodeLog(f *testing.F) {
	good := (&Log{
		Game: "pong", CheckpointEvery: 2,
		Inputs:      []uint16{1, 0x8000, 0xFFFF, 4},
		Checkpoints: []uint64{0xA1, 0xB2},
		Final:       0xC3,
	}).Encode()
	f.Add(good)
	f.Add((&Log{}).Encode())
	f.Add(good[:len(good)-1]) // truncated checksum
	f.Add(good[:len(good)/2]) // torn mid-write
	f.Add([]byte(logMagic))   // header only
	flipped := append([]byte(nil), good...)
	flipped[12] ^= 0xFF // corrupt the input count: checksum must catch it
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		l, err := Decode(data)
		if err != nil {
			return
		}
		enc := l.Encode()
		again, err := Decode(enc)
		if err != nil {
			t.Fatalf("re-decoding an accepted log failed: %v", err)
		}
		if !reflect.DeepEqual(again, l) || !bytes.Equal(again.Encode(), enc) {
			t.Fatalf("round trip changed the log:\n first %+v\nsecond %+v", l, again)
		}
	})
}
