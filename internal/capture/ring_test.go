package capture

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"time"
)

// ringPayload builds a deterministic payload for sequence i of length n:
// the sequence number followed by a byte pattern derived from it, so a
// corrupted arena (overlapping or misplaced payloads) cannot go unnoticed.
func ringPayload(i, n int) []byte {
	p := make([]byte, n)
	if n >= 4 {
		binary.LittleEndian.PutUint32(p, uint32(i))
	}
	for j := 4; j < n; j++ {
		p[j] = byte(i*31 + j)
	}
	return p
}

// TestRingKeepsMostRecentSuffix is the ring's core contract: whatever the
// sequence of payload sizes, the retained records are exactly the most
// recent contiguous suffix of everything recorded, in order, with payloads
// intact — and evicted + retained equals recorded.
func TestRingKeepsMostRecentSuffix(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	epoch := time.Unix(1_000_000, 0)
	for trial := 0; trial < 50; trial++ {
		maxRecs := 1 + rng.Intn(32)
		maxBytes := 16 + rng.Intn(512)
		r := NewRing(maxRecs, maxBytes)
		total := 200 + rng.Intn(200)
		var sent [][]byte
		for i := 0; i < total; i++ {
			n := rng.Intn(maxBytes + 1) // includes 0 and the full arena
			p := ringPayload(i, n)
			sent = append(sent, p)
			r.Record(epoch.Add(time.Duration(i)*time.Millisecond), Dir(i%2), i%2, p)
		}
		c := r.Snapshot(Meta{})
		if got := len(c.Records) + int(c.Meta.Dropped); got != total {
			t.Fatalf("trial %d: retained %d + dropped %d != recorded %d",
				trial, len(c.Records), c.Meta.Dropped, total)
		}
		if len(c.Records) == 0 {
			t.Fatalf("trial %d: ring retained nothing (maxRecs=%d maxBytes=%d)", trial, maxRecs, maxBytes)
		}
		first := total - len(c.Records)
		for j, rec := range c.Records {
			i := first + j
			if want := time.Duration(i) * time.Millisecond; rec.At != want {
				t.Fatalf("trial %d: record %d at %v, want %v (not the most-recent suffix)",
					trial, j, rec.At, want)
			}
			if !bytes.Equal(rec.Payload, sent[i]) {
				t.Fatalf("trial %d: record %d payload corrupt: got %d bytes, want %d",
					trial, j, len(rec.Payload), len(sent[i]))
			}
			if rec.Site != uint8(i%2) || rec.Dir != Dir(i%2) {
				t.Fatalf("trial %d: record %d dir/site mangled", trial, j)
			}
		}
	}
}

// TestRingWrapsArena drives same-size payloads through a small arena so the
// write cursor must wrap many times, and checks the ring always holds the
// latest records it has room for.
func TestRingWrapsArena(t *testing.T) {
	r := NewRing(8, 100) // 3 × 30-byte payloads fit, the 4th forces eviction
	epoch := time.Unix(0, 0)
	for i := 0; i < 100; i++ {
		r.Record(epoch.Add(time.Duration(i)), DirRecv, 0, ringPayload(i, 30))
	}
	c := r.Snapshot(Meta{})
	if len(c.Records) != 3 {
		t.Fatalf("ring holds %d records, want 3 (arena fits 3×30 of 100 bytes)", len(c.Records))
	}
	for j, rec := range c.Records {
		i := 97 + j
		if !bytes.Equal(rec.Payload, ringPayload(i, 30)) {
			t.Fatalf("record %d is not sequence %d after wrapping", j, i)
		}
	}
	if c.Meta.Dropped != 97 {
		t.Fatalf("dropped = %d, want 97", c.Meta.Dropped)
	}
}

// TestRingEmptyPayloadsHoldNoBytes: records with empty payloads hold no
// buffer bytes, so a payload that fits the free buffer evicts none of them,
// wherever the write cursor stood when they were recorded.
func TestRingEmptyPayloadsHoldNoBytes(t *testing.T) {
	epoch := time.Unix(0, 0)
	r := NewRing(8, 1024)
	for i := 0; i < 3; i++ {
		r.Record(epoch.Add(time.Duration(i)), DirRecv, 0, nil)
	}
	r.Record(epoch.Add(3), DirRecv, 0, ringPayload(3, 10))
	if c := r.Snapshot(Meta{}); len(c.Records) != 4 || c.Meta.Dropped != 0 {
		t.Fatalf("ring holds %d records and lost %d, want 4 and 0", len(c.Records), c.Meta.Dropped)
	}

	// The cursor mid-buffer: a 600-byte payload, an empty one, then a
	// 700-byte one that fits neither side of the cursor. Only the 600-byte
	// record must go.
	r = NewRing(8, 1024)
	r.Record(epoch, DirRecv, 0, ringPayload(0, 600))
	r.Record(epoch.Add(1), DirRecv, 0, nil)
	r.Record(epoch.Add(2), DirRecv, 0, ringPayload(2, 700))
	c := r.Snapshot(Meta{})
	if len(c.Records) != 2 || c.Meta.Dropped != 1 || len(c.Records[0].Payload) != 0 ||
		!bytes.Equal(c.Records[1].Payload, ringPayload(2, 700)) {
		t.Fatalf("ring holds %d records (lost %d), want the empty one and the 700-byte one", len(c.Records), c.Meta.Dropped)
	}
}

// TestRingOversizedPayload: a payload larger than the whole arena can never
// be stored; it must be counted, not partially written, and must not evict
// what the ring already holds.
func TestRingOversizedPayload(t *testing.T) {
	r := NewRing(4, 64)
	epoch := time.Unix(0, 0)
	r.Record(epoch, DirSend, 1, ringPayload(0, 20))
	r.Record(epoch.Add(1), DirSend, 1, ringPayload(1, 65))
	if r.Len() != 1 {
		t.Fatalf("ring len = %d after oversized record, want 1", r.Len())
	}
	c := r.Snapshot(Meta{})
	if c.Meta.Dropped != 1 {
		t.Fatalf("evicted = %d, want 1 (the oversized payload)", c.Meta.Dropped)
	}
	if !bytes.Equal(c.Records[0].Payload, ringPayload(0, 20)) {
		t.Fatal("oversized record evicted the ring's existing contents")
	}
}

// TestRingReset: after Reset the ring is empty, counters are zeroed, and the
// next record re-anchors the epoch — the contract stat-block pooling needs.
func TestRingReset(t *testing.T) {
	r := NewRing(4, 64)
	e1 := time.Unix(100, 0)
	for i := 0; i < 10; i++ {
		r.Record(e1.Add(time.Duration(i)), DirRecv, 0, ringPayload(i, 16))
	}
	r.Reset()
	if ev := r.Snapshot(Meta{}).Meta.Dropped; r.Len() != 0 || ev != 0 {
		t.Fatalf("after Reset: len=%d evicted=%d, want 0/0", r.Len(), ev)
	}
	e2 := time.Unix(200, 0)
	r.Record(e2, DirRecv, 1, ringPayload(0, 8))
	c := r.Snapshot(Meta{})
	if c.Meta.Epoch != e2.UnixNano() {
		t.Fatalf("epoch = %d after Reset, want re-anchored %d", c.Meta.Epoch, e2.UnixNano())
	}
	if len(c.Records) != 1 || c.Records[0].At != 0 {
		t.Fatalf("post-Reset contents wrong: %d records", len(c.Records))
	}
}

// TestRingSnapshotRoundTrips: a ring snapshot with session/verdict meta
// must survive Encode/Decode — this is the anomaly bundle relayd writes.
func TestRingSnapshotRoundTrips(t *testing.T) {
	r := NewRing(8, 256)
	epoch := time.Unix(42, 0)
	for i := 0; i < 20; i++ {
		r.Record(epoch.Add(time.Duration(i)*time.Millisecond), DirRecv, i%2, ringPayload(i, 24))
	}
	c := r.Snapshot(Meta{Session: "0000000000040401", Verdict: "degraded", Notes: "relay anomaly"})
	got, err := Decode(c.Encode())
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.Meta.Session != c.Meta.Session || got.Meta.Verdict != "degraded" {
		t.Fatalf("meta lost session/verdict: %+v", got.Meta)
	}
	if len(got.Records) != len(c.Records) {
		t.Fatalf("round trip lost records: %d != %d", len(got.Records), len(c.Records))
	}
}

// TestRingRecordDoesNotAllocate pins the steady-state allocation contract:
// once built, Record is copies into preallocated memory.
func TestRingRecordDoesNotAllocate(t *testing.T) {
	r := NewRing(32, 4096)
	epoch := time.Unix(0, 0)
	p := ringPayload(0, 64)
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		r.Record(epoch.Add(time.Duration(i)), DirRecv, 0, p)
		i++
	})
	if allocs != 0 {
		t.Fatalf("Ring.Record allocates %.1f per op, want 0", allocs)
	}
}

// TestRingNil: a nil ring ignores everything, like a nil Recorder.
func TestRingNil(t *testing.T) {
	var r *Ring
	r.Record(time.Unix(0, 0), DirRecv, 0, []byte("x"))
	r.Reset()
	if r.Len() != 0 || r.Snapshot(Meta{}).Meta.Dropped != 0 {
		t.Fatal("nil ring reports contents")
	}
	if c := r.Snapshot(Meta{Notes: "n"}); len(c.Records) != 0 || c.Meta.Notes != "n" {
		t.Fatal("nil ring snapshot wrong")
	}
}
