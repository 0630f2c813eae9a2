package harness

import (
	"testing"
	"time"

	"retrolock/internal/capture"
	"retrolock/internal/netem"
	"retrolock/internal/relay"
)

// relayedSync runs a lockstep session over the lte profile's relayed path,
// folded into the peer link as the qoeload series does, and returns every
// datagram the sites sent as the relay receives it: behind a relay header.
// These are what a relay session's anomaly ring records.
func relayedSync(tb testing.TB, frames int) [][]byte {
	tb.Helper()
	fwd, _, err := netem.Profile("lte", 1)
	if err != nil {
		tb.Fatal(err)
	}
	rec := capture.NewRecorder(1<<16, 1<<24)
	cfg := Config{
		RTT:       4 * fwd.Delay,
		Jitter:    2 * fwd.Jitter,
		Loss:      2 * fwd.Loss,
		BurstLoss: fwd.BurstLoss,
		MeanBurst: fwd.MeanBurst,
		Frames:    frames,
		Seed:      1,
		Capture:   rec,
	}
	if _, err := Run(cfg); err != nil {
		tb.Fatal(err)
	}
	if rec.Dropped() != 0 {
		tb.Fatalf("capture dropped %d records; raise the recorder budgets", rec.Dropped())
	}
	var out [][]byte
	for _, r := range rec.Snapshot(capture.Meta{}).Records {
		if r.Dir == capture.DirSend {
			out = append(out, append(make([]byte, relay.HeaderLen), r.Payload...))
		}
	}
	return out
}

// TestRingOnRelayedSync feeds a relay-sized anomaly ring (64 records, 8 KiB,
// relayd's defaults) the datagrams of a relayed lockstep session. Over a
// 140 ms relayed path a sync message carries a dozen or more unacknowledged
// inputs, so most datagrams are longer than the 63 bytes that 65 of them
// could take in 4 KiB: a ring of real sessions writes its whole byte budget,
// unlike one fed the 33-byte datagrams of the synthetic generators. The
// ring still keeps exactly the newest 64, evicting only for slots.
func TestRingOnRelayedSync(t *testing.T) {
	dgrams := relayedSync(t, 1200)
	long, largest := 0, 0
	for _, d := range dgrams {
		if len(d) > 63 {
			long++
		}
		largest = max(largest, len(d))
	}
	t.Logf("%d datagrams, %d over 63 bytes, largest %d", len(dgrams), long, largest)
	if 2*long < len(dgrams) {
		t.Errorf("%d of %d relayed datagrams are over 63 bytes, want most", long, len(dgrams))
	}
	const records, bytes = 64, 8 << 10
	if (records+1)*largest > bytes {
		t.Fatalf("largest datagram %d bytes: 65 of them overflow %d bytes, so the ring may evict for bytes", largest, bytes)
	}
	ring := capture.NewRing(records, bytes)
	epoch := time.Unix(0, 0)
	ring.SetEpoch(epoch)
	for i, d := range dgrams {
		ring.Record(epoch.Add(time.Duration(i)), capture.DirRecv, 0, d)
	}
	c := ring.Snapshot(capture.Meta{})
	if len(c.Records) != records || c.Meta.Dropped != int64(len(dgrams)-records) {
		t.Fatalf("ring kept %d, evicted %d of %d; want the newest %d", len(c.Records), c.Meta.Dropped, len(dgrams), records)
	}
	for i, r := range c.Records {
		if want := len(dgrams) - records + i; r.At != time.Duration(want) || string(r.Payload) != string(dgrams[want]) {
			t.Fatalf("record %d is datagram %d, want %d", i, r.At, want)
		}
	}
	if got := ring.Resident(); got < records*16+bytes-largest {
		t.Errorf("ring Resident = %d, want its slots and nearly all %d bytes written", got, bytes)
	}
}
