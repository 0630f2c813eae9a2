package container

import (
	"bytes"
	"testing"
)

// FuzzContainer pins the framing's two contracts on arbitrary bytes. Total:
// Open, the section walk and every Reader method return errors on damaged
// input, never panic, and Count never admits more records than the bytes
// behind it can hold. Round trip: whatever body is sealed into a frame is
// what Open hands back, and sections come out as they went in.
func FuzzContainer(f *testing.F) {
	sealed := Seal(AppendSection(AppendSection(Begin(nil, "RKXX", 1), 1, []byte("meta")), 9, nil))
	f.Add(sealed)
	f.Add(sealed[:len(sealed)-1]) // truncated trailer
	f.Add(sealed[:8])             // torn mid-section
	f.Add([]byte("RKXX"))
	f.Add([]byte{})
	// A count that claims far more records than follow it.
	f.Add(Seal(append(Begin(nil, "RKXX", 1), 0xFF, 0xFF, 0xFF, 0x7F, 1, 2, 3)))

	f.Fuzz(func(t *testing.T, data []byte) {
		walk := func(body []byte) {
			_ = Sections(body, func(tag byte, p []byte) error {
				r := NewReader(p)
				if n := r.Count(3); n*3 > len(p) {
					t.Fatalf("Count admitted %d 3-byte records in %d bytes", n, len(p))
				}
				r.U8()
				r.U16()
				r.U32()
				r.U64()
				r.Bytes(int(r.U32()))
				return r.Err()
			})
		}
		// As a frame from outside: nothing may panic.
		if body, err := Open(data, "RKXX", 1); err == nil {
			walk(body)
		}
		walk(data)

		// As a body we seal ourselves: Open returns it unchanged.
		body, err := Open(Seal(append(Begin(nil, "RKXX", 1), data...)), "RKXX", 1)
		if err != nil || !bytes.Equal(body, data) {
			t.Fatalf("Open(Seal(x)) = %x, %v; want %x", body, err, data)
		}
		// As one section's payload: the walk yields exactly that section.
		seen := 0
		err = Sections(AppendSection(nil, 7, data), func(tag byte, p []byte) error {
			seen++
			if tag != 7 || !bytes.Equal(p, data) {
				t.Fatalf("section came back as tag %d %x, want tag 7 %x", tag, p, data)
			}
			return nil
		})
		if err != nil || seen != 1 {
			t.Fatalf("walk of one section: %d seen, err %v", seen, err)
		}
	})
}
