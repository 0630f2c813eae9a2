package flight_test

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"retrolock/internal/core"
	"retrolock/internal/flight"
	"retrolock/internal/span"
)

// FuzzDecodeBundle throws arbitrary bytes at the incident-bundle parser,
// mirroring FuzzDecodeROM's contract for the "RK32" container: Decode must
// never panic — a triage run on a damaged black box fails with an error, not
// a crash — and any bundle it accepts must survive an encode/decode round
// trip with every section intact.
func FuzzDecodeBundle(f *testing.F) {
	// Seed with a real recorder-produced bundle so the fuzzer starts from
	// the genuine wire shape, not just random noise.
	rec, _ := recordRun(f, flight.Options{Site: 1, SnapEvery: 4}, 20, 0, 0, 0)
	rec.RecordRemoteHash(0, 18, 7)
	rec.Incident(core.IncidentDesync, fmt.Errorf("seed incident"))
	real := rec.Bundle()
	f.Add(real)
	f.Add(real[:len(real)-1]) // truncated checksum
	f.Add(real[:len(real)/2]) // torn mid-write
	flipped := append([]byte(nil), real...)
	flipped[8] ^= 0xFF // corrupt a section header: checksum must catch it
	f.Add(flipped)
	f.Add([]byte("RKFB"))
	minimal := (&flight.Bundle{Manifest: flight.Manifest{Version: flight.BundleVersion}}).Encode()
	f.Add(minimal)
	withAll := (&flight.Bundle{
		Manifest:     flight.Manifest{Version: flight.BundleVersion, Kind: "manual"},
		ROM:          []byte{1, 2, 3},
		Frames:       []flight.FrameRecord{{Frame: 9, Input: 2, Wait: time.Millisecond, Hash: 3}},
		Snapshots:    []flight.StateSnapshot{{Frame: 4, State: []byte{5}}},
		Final:        &flight.StateSnapshot{Frame: 9, State: []byte{6}},
		RemoteHashes: []flight.RemoteHash{{Site: 0, Frame: 9, Hash: 8}},
		Trace:        []byte("{}\n"),
		Metrics:      []byte("{}"),
		Spans:        []span.Span{{Frame: 9, Pressed: 1, Executed: 2, RemotePressed: 1, Retransmits: 3}},
	}).Encode()
	f.Add(withAll)

	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := flight.Decode(data)
		if err != nil {
			return
		}
		again, err := flight.Decode(b.Encode())
		if err != nil {
			t.Fatalf("re-decoding an accepted bundle failed: %v", err)
		}
		if !reflect.DeepEqual(again, b) {
			t.Fatalf("round trip changed the bundle:\n first %+v\nsecond %+v", b, again)
		}
	})
}
