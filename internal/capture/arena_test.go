package capture

import (
	"bytes"
	"testing"
	"time"
	"unsafe"
)

// TestRecIs16Bytes: a record slot is what every tap pays per datagram kept,
// whatever the payload, so its size is pinned.
func TestRecIs16Bytes(t *testing.T) {
	if got := unsafe.Sizeof(rec{}); got != 16 {
		t.Fatalf("rec is %d bytes, want 16", got)
	}
}

// TestOversizedDatagramRefused: a payload longer than a UDP datagram cannot
// be described by a rec, so both taps refuse it with a count, keep what they
// hold, and still take the largest datagram that does fit.
func TestOversizedDatagramRefused(t *testing.T) {
	epoch := time.Unix(0, 0)
	big := bytes.Repeat([]byte{0x5a}, maxPayload+1)
	for _, tc := range []struct {
		name string
		tap  interface {
			Record(at time.Time, dir Dir, site int, payload []byte)
			Snapshot(meta Meta) *Capture
		}
	}{
		{"recorder", NewRecorder(4, 1<<18)},
		{"ring", NewRing(4, 1<<18)},
	} {
		tc.tap.Record(epoch, DirRecv, 0, []byte("kept"))
		tc.tap.Record(epoch.Add(1), DirRecv, 0, big)
		tc.tap.Record(epoch.Add(2), DirRecv, 1, big[:maxPayload])
		c := tc.tap.Snapshot(Meta{})
		if c.Meta.Dropped != 1 {
			t.Errorf("%s: lost %d, want 1 (the %d-byte payload)", tc.name, c.Meta.Dropped, len(big))
		}
		if len(c.Records) != 2 || string(c.Records[0].Payload) != "kept" ||
			!bytes.Equal(c.Records[1].Payload, big[:maxPayload]) {
			t.Errorf("%s: kept %d records, want \"kept\" then the %d-byte payload", tc.name, len(c.Records), maxPayload)
		}
	}
}

// TestResidentCountsWrittenBytes: Resident is what the taps have written,
// in the taps' own terms. A Recorder never wraps, so it is its records plus
// its bytes. A Ring counts every slot and byte offset it has reached, so a
// ring that has wrapped reads its whole budget, and Reset keeps the count
// because the memory stays resident.
func TestResidentCountsWrittenBytes(t *testing.T) {
	epoch := time.Unix(0, 0)
	rec := NewRecorder(8, 1024)
	for i := 0; i < 12; i++ {
		rec.Record(epoch.Add(time.Duration(i)), DirSend, 0, ringPayload(i, 100))
	}
	if got, want := rec.Resident(), 8*recSize+8*100; got != want || rec.Len() != 8 {
		t.Fatalf("Recorder: Resident %d with %d records, want %d (8 records of 100 bytes)", got, rec.Len(), want)
	}
	ring := NewRing(8, 1000)
	for i := 0; i < 5; i++ {
		ring.Record(epoch.Add(time.Duration(i)), DirSend, 0, ringPayload(i, 33))
	}
	if got, want := ring.Resident(), 5*recSize+5*33; got != want {
		t.Fatalf("Ring: Resident %d, want %d", got, want)
	}
	ring.Reset()
	if got, want := ring.Resident(), 5*recSize+5*33; got != want {
		t.Fatalf("Ring: Resident %d after Reset, want %d", got, want)
	}
	// 40 records of 100 bytes wrap both the 8 slots and the 1,000 bytes.
	for i := 0; i < 40; i++ {
		ring.Record(epoch.Add(time.Duration(i)), DirSend, 0, ringPayload(i, 100))
	}
	if got, want := ring.Resident(), 8*recSize+1000; got != want || ring.Len() != 8 {
		t.Fatalf("Ring: Resident %d with %d records after wrapping, want %d", got, ring.Len(), want)
	}
	var nilRing *Ring
	if nilRing.Resident() != 0 {
		t.Fatal("nil ring reports resident bytes")
	}
}
