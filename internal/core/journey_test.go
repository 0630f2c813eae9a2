package core

import (
	"testing"
	"time"

	"retrolock/internal/obs"
	"retrolock/internal/span"
)

// newJourneyPair is newLockstepPair with input-journey span journals attached
// to both sites and per-frame exec reports fed the way Session.RunFrames
// does, so the cross-site derivations (offset estimate, remote-exec mapping)
// all run.
func newJourneyPair(t testing.TB) (j0, j1 *span.Journal, s0, s1 *InputSync, stepFrame func(f int)) {
	t.Helper()
	clk := &manualClock{t: epoch}
	c0, c1 := newPipePair()
	var err error
	s0, err = NewInputSync(Config{SiteNo: 0}, clk, epoch, []Peer{{Site: 1, Conn: c0}})
	if err != nil {
		t.Fatal(err)
	}
	s1, err = NewInputSync(Config{SiteNo: 1}, clk, epoch, []Peer{{Site: 0, Conn: c1}})
	if err != nil {
		t.Fatal(err)
	}
	mkJournal := func() *span.Journal {
		j := span.NewJournal(epoch, 0)
		j.Cross, j.Local, j.Net, j.Skew = &obs.Histogram{}, &obs.Histogram{}, &obs.Histogram{}, &obs.Histogram{}
		return j
	}
	j0, j1 = mkJournal(), mkJournal()
	s0.SetJournal(j0)
	s1.SetJournal(j1)
	stepFrame = func(f int) {
		now := clk.Now()
		s0.ReportExec(f, now)
		s1.ReportExec(f, now)
		if _, err := s0.SyncInput(uint16(f)&0x00FF, f); err != nil {
			t.Fatalf("site 0 frame %d: %v", f, err)
		}
		if _, err := s1.SyncInput(uint16(f)<<8, f); err != nil {
			t.Fatalf("site 1 frame %d: %v", f, err)
		}
		clk.Sleep(DefaultSendInterval)
	}
	return j0, j1, s0, s1, stepFrame
}

// TestSyncHotPathWithJournalDoesNotAllocate is the acceptance gate for span
// recording: the steady-state frame loop with a journal attached — pressed,
// send-range, receive, executed and remote-exec stamps plus the derived
// histogram observations, every frame — must still allocate nothing.
func TestSyncHotPathWithJournalDoesNotAllocate(t *testing.T) {
	_, _, _, _, stepFrame := newJourneyPair(t)
	frame := 0
	for ; frame < 300; frame++ { // warm-up: scratch buffers reach steady size
		stepFrame(frame)
	}
	allocs := testing.AllocsPerRun(500, func() {
		stepFrame(frame)
		frame++
	})
	if allocs != 0 {
		t.Fatalf("journal-attached frame loop allocates %.1f times per frame, want 0", allocs)
	}
}

// TestInputJourneyDerivedLatencies runs a clean two-site session and checks
// that both journals derive sane end-to-end quantities. The pipe is
// zero-delay in virtual time but messages cross one 20 ms send interval of
// simulated time, so the offset estimators converge with a bounded (±10 ms)
// asymmetry error; the assertions leave room for exactly that.
func TestInputJourneyDerivedLatencies(t *testing.T) {
	const frames = 400
	j0, j1, s0, _, stepFrame := newJourneyPair(t)
	for f := 0; f < frames; f++ {
		stepFrame(f)
	}

	off, ok := s0.peers[1].offset.OffsetMicros()
	if !ok {
		t.Fatal("site 0 never formed a clock-offset estimate for site 1")
	}
	if off < -15000 || off > 15000 {
		t.Fatalf("offset estimate %d µs, want |off| <= 15 ms (clocks are shared)", off)
	}

	lagNs := int64(DefaultBufFrame) * int64(DefaultSendInterval)
	for name, j := range map[string]*span.Journal{"site0": j0, "site1": j1} {
		// Local latency is lag frames of send interval by construction.
		if n := j.Local.Count(); n < frames-2*DefaultBufFrame {
			t.Errorf("%s: Local count %d, want ~%d", name, n, frames)
		}
		if q := int64(j.Local.Quantile(0.5)); q < lagNs || q >= 3*lagNs {
			t.Errorf("%s: Local p50 bound %dns, want within a bucket of the %dns lag", name, q, lagNs)
		}
		// Cross-site latency: Local plus/minus the offset asymmetry error,
		// observed exactly once per frame (first-wins stamps).
		if n := j.Cross.Count(); n < frames/2 || n > frames {
			t.Errorf("%s: Cross count %d, want once per frame (~%d)", name, n, frames)
		}
		if q := int64(j.Cross.Quantile(0.5)); q < lagNs/2 || q >= 3*lagNs {
			t.Errorf("%s: Cross p50 bound %dns, want around the %dns lag", name, q, lagNs)
		}
		// Skew: the sites execute in lockstep; only the offset error shows.
		if n := j.Skew.Count(); n < frames/2 {
			t.Errorf("%s: Skew count %d, want ~%d", name, n, frames)
		}
		if q := int64(j.Skew.Quantile(0.9)); q > int64(33*time.Millisecond) {
			t.Errorf("%s: Skew p90 bound %dns, want <= 33 ms", name, q)
		}
		// One-way latency closes once the offset estimate exists.
		if j.Net.Count() == 0 {
			t.Errorf("%s: Net never observed", name)
		}
	}
}
