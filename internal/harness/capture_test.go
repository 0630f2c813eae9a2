package harness

import (
	"bytes"
	"testing"
	"time"

	"retrolock/internal/capture"
)

// TestGoldenCaptureDeterministic is the golden-capture property: two
// harness runs of the same config — a lossy link with ARQ retransmissions,
// so the capture is not just a clean periodic stream — must produce
// bit-identical RKCP captures and identical final frame hashes. This is
// what makes a checked-in .rkcp trace a reproducible experiment input
// rather than a one-off log.
func TestGoldenCaptureDeterministic(t *testing.T) {
	run := func() (enc []byte, hashes [2]uint64) {
		rec := capture.NewRecorder(1<<16, 1<<22)
		cfg := Config{
			RTT:     40 * time.Millisecond,
			Jitter:  3 * time.Millisecond,
			Loss:    0.02,
			Frames:  240,
			ARQ:     true,
			Seed:    5,
			Capture: rec,
		}
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Converged {
			t.Fatal("run did not converge")
		}
		c := rec.Snapshot(capture.Meta{Game: cfg.Game, Notes: "golden capture determinism"})
		if c.Meta.Dropped != 0 {
			t.Fatalf("capture dropped %d records; raise the recorder budgets", c.Meta.Dropped)
		}
		if len(c.Records) == 0 {
			t.Fatal("capture is empty")
		}
		for i := range res.Sites[:2] {
			hashes[i] = res.Sites[i].FinalHash
		}
		return c.Encode(), hashes
	}

	encA, hashA := run()
	encB, hashB := run()
	if hashA != hashB {
		t.Errorf("final frame hashes differ across identical runs: %x vs %x", hashA, hashB)
	}
	if !bytes.Equal(encA, encB) {
		t.Errorf("RKCP captures differ across identical runs (%d vs %d bytes)", len(encA), len(encB))
	}
	// The capture must decode, and both directions of both sites must be
	// represented (sends and deliveries at site 0 and site 1).
	c, err := capture.Decode(encA)
	if err != nil {
		t.Fatalf("capture does not decode: %v", err)
	}
	var seen [2][2]int // [site][dir]
	for i := range c.Records {
		r := &c.Records[i]
		if r.Site > 1 {
			t.Fatalf("record %d: impossible site %d", i, r.Site)
		}
		seen[r.Site][r.Dir]++
	}
	for site := 0; site < 2; site++ {
		for dir := 0; dir < 2; dir++ {
			if seen[site][dir] == 0 {
				t.Errorf("no records for site %d dir %d (0 send, 1 recv)", site, dir)
			}
		}
	}
	if first, last := c.Records[0].At, c.Records[len(c.Records)-1].At; last <= first {
		t.Errorf("capture spans %v..%v, want a positive span", first, last)
	}
}
