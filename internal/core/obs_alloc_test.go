package core

import (
	"testing"

	"retrolock/internal/obs"
)

// TestSyncHotPathZeroAllocWithObs re-pins the zero-allocation property of
// the steady-state sync path with the full observability bundle attached:
// tracer ring, frame-time/wait/RTT histograms and the atomic counters. The
// instrumentation must ride the hot path for free — this is the guard that
// keeps it that way.
func TestSyncHotPathZeroAllocWithObs(t *testing.T) {
	s0, s1, stepFrame := newLockstepPair(t)
	reg := obs.NewRegistry()
	s0.SetObs(NewSessionObs(reg, 0, 1<<12, epoch))
	s1.SetObs(NewSessionObs(reg, 1, 1<<12, epoch))

	frame := 0
	for ; frame < 300; frame++ { // warm-up: scratch buffers reach steady size
		stepFrame(frame)
	}
	allocs := testing.AllocsPerRun(500, func() {
		stepFrame(frame)
		frame++
	})
	if allocs != 0 {
		t.Fatalf("instrumented sync path allocates %.1f times per frame, want 0", allocs)
	}
	// The instrumentation must actually have been live, or the test proves
	// nothing: both tracers recorded events and the histograms saw frames.
	for site, s := range []*InputSync{s0, s1} {
		if len(s.tele.Tracer.Snapshot()) == 0 {
			t.Errorf("site %d: tracer recorded nothing", site)
		}
		if s.tele.FrameTime == nil {
			t.Errorf("site %d: no frame-time histogram attached", site)
		}
	}
}

// TestFrameLoopZeroAllocWithObs covers the full Algorithm 1 loop — pacing,
// sync, machine step, telemetry hooks — under a Session with the
// observability bundle attached. Hash exchange is disabled (the digest
// broadcast legitimately allocates its message) so the test isolates the
// per-frame steady state.
func TestFrameLoopZeroAllocWithObs(t *testing.T) {
	clk := &manualClock{t: epoch}
	c0, c1 := newPipePair()
	conns := [2]*pipeConn{c0, c1}
	machines := [2]*fakeMachine{{}, {}}
	reg := obs.NewRegistry()
	var sessions [2]*Session
	for site := 0; site < 2; site++ {
		s, err := NewSession(Config{SiteNo: site, HashInterval: -1}, clk, epoch,
			machines[site], []Peer{{Site: 1 - site, Conn: conns[site]}})
		if err != nil {
			t.Fatal(err)
		}
		s.SetObs(NewSessionObs(reg, site, 1<<12, epoch))
		sessions[site] = s
	}

	inputs := [2]func(int) uint16{
		func(f int) uint16 { return uint16(f) & 0x00FF },
		func(f int) uint16 { return uint16(f) & 0x00FF << 8 },
	}
	step := func() {
		for site, s := range sessions {
			if err := s.RunFrames(1, inputs[site], nil); err != nil {
				t.Fatalf("site %d frame %d: %v", site, s.Frame(), err)
			}
		}
		clk.Sleep(DefaultSendInterval)
	}
	for f := 0; f < 300; f++ { // warm-up
		step()
	}
	allocs := testing.AllocsPerRun(500, func() { step() })
	if allocs != 0 {
		t.Fatalf("instrumented frame loop allocates %.1f times per frame, want 0", allocs)
	}
	if machines[0].hash != machines[1].hash {
		t.Fatal("replicas diverged")
	}
	if len(sessions[0].tele.Tracer.Snapshot()) == 0 {
		t.Fatal("tracer recorded nothing — the bundle was not live")
	}
}
