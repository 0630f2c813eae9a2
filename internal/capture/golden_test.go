package capture

import (
	"hash/fnv"
	"testing"
	"time"
)

// TestGoldenRecorderAndRing drives both taps with one fixed datagram
// sequence that overruns the slot budget, the byte budget, or both, and pins
// what each keeps: the encoded snapshot (FNV-1a/64), the overflow count and
// Len. The refuse-newest and evict-oldest policies are observable behaviour
// (captures are diffed bit for bit), so the pins hold across any rewrite of
// the storage behind them.
func TestGoldenRecorderAndRing(t *testing.T) {
	base := time.Date(2009, 6, 22, 0, 0, 0, 0, time.UTC)
	type tap interface {
		Record(at time.Time, dir Dir, site int, payload []byte)
		Snapshot(meta Meta) *Capture
		Len() int
	}
	drive := func(r tap) (uint64, int) {
		for i := 0; i < 40; i++ {
			n := i * 7 % 50
			if i == 25 {
				n = 150 // larger than the small arenas below
			}
			payload := make([]byte, n)
			for j := range payload {
				payload[j] = byte(i + j)
			}
			r.Record(base.Add(time.Duration(i)*16670*time.Microsecond), Dir(i%2), i%3, payload)
		}
		h := fnv.New64a()
		h.Write(r.Snapshot(Meta{Game: "pong", Notes: "golden"}).Encode())
		return h.Sum64(), r.Len()
	}
	for _, tc := range []struct {
		name                 string
		maxRecords, maxBytes int
		recDigest            uint64
		recLen               int
		recDropped           int64
		ringDigest           uint64
		ringLen              int
		ringEvicted          int64
	}{
		{"slot-bound", 8, 4096, 0xac1da0cd7f540fe2, 8, 32, 0x4b120e5eca59f0c0, 8, 32},
		{"byte-bound", 64, 200, 0xb2c254d59886417f, 9, 31, 0xc1b7dd75fa7716a1, 7, 33},
		{"both", 6, 120, 0x812ddee07b48f7f0, 6, 34, 0xb48ba1d3ca91dab, 5, 35},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := NewRecorder(tc.maxRecords, tc.maxBytes)
			if d, n := drive(rec); d != tc.recDigest || n != tc.recLen || rec.Dropped() != tc.recDropped {
				t.Errorf("Recorder: digest %#x len %d dropped %d, pinned %#x / %d / %d",
					d, n, rec.Dropped(), tc.recDigest, tc.recLen, tc.recDropped)
			}
			ring := NewRing(tc.maxRecords, tc.maxBytes)
			if d, n := drive(ring); d != tc.ringDigest || n != tc.ringLen || ring.Evicted() != tc.ringEvicted {
				t.Errorf("Ring: digest %#x len %d evicted %d, pinned %#x / %d / %d",
					d, n, ring.Evicted(), tc.ringDigest, tc.ringLen, tc.ringEvicted)
			}
		})
	}
}
