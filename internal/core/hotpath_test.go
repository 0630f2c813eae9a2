package core

import "testing"

// newLockstepPair wires two player InputSyncs over a lossless pipe with a
// hand-cranked clock. stepFrame runs one frame on both sites and advances
// time by one send interval, so every frame exchanges exactly one message
// per direction and, past the local lag, never waits.
func newLockstepPair(t testing.TB) (s0, s1 *InputSync, stepFrame func(f int)) {
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
	var h0, h1 uint64
	stepFrame = func(f int) {
		m0, err := s0.SyncInput(uint16(f)&0x00FF, f)
		if err != nil {
			t.Fatalf("site 0 frame %d: %v", f, err)
		}
		m1, err := s1.SyncInput(uint16(f)<<8, f)
		if err != nil {
			t.Fatalf("site 1 frame %d: %v", f, err)
		}
		h0 = h0*1099511628211 + uint64(m0)
		h1 = h1*1099511628211 + uint64(m1)
		if h0 != h1 {
			t.Fatalf("frame %d: merged-input streams diverged (%#x vs %#x)", f, m0, m1)
		}
		clk.Sleep(DefaultSendInterval)
	}
	return s0, s1, stepFrame
}

// TestSyncHotPathDoesNotAllocate pins the zero-allocation property of the
// steady-state frame loop: SyncInput → Pump → sendTo/handle must reuse the
// per-site scratch buffers instead of allocating per frame or per message.
func TestSyncHotPathDoesNotAllocate(t *testing.T) {
	_, _, stepFrame := newLockstepPair(t)
	frame := 0
	for ; frame < 300; frame++ { // warm-up: scratch buffers reach steady size
		stepFrame(frame)
	}
	allocs := testing.AllocsPerRun(500, func() {
		stepFrame(frame)
		frame++
	})
	if allocs != 0 {
		t.Fatalf("steady-state frame loop allocates %.1f times per frame, want 0", allocs)
	}
}

// TestLongSessionMemoryBounded is the tentpole's acceptance test: a session
// of 120k frames (~33 minutes of game time) must hold the input buffer at
// its initial capacity, with a window high-water mark of a few frames — the
// ring retires delivered-and-acknowledged frames instead of growing forever.
func TestLongSessionMemoryBounded(t *testing.T) {
	frames := 120_000
	if testing.Short() {
		frames = 20_000
	}
	s0, s1, stepFrame := newLockstepPair(t)
	for f := 0; f < frames; f++ {
		stepFrame(f)
	}
	for name, s := range map[string]*InputSync{"site0": s0, "site1": s1} {
		if got := len(s.ibuf.buf); got != ringInitialCap {
			t.Errorf("%s: ring capacity %d after %d frames, want the initial %d", name, got, frames, ringInitialCap)
		}
		if got := s.Stats().BufPeak; got >= 64 {
			t.Errorf("%s: window peak %d frames, want < 64", name, got)
		}
		if _, ok := s.InputAt(5); ok {
			t.Errorf("%s: frame 5 still buffered after %d frames — retirement never ran", name, frames)
		}
		if _, ok := s.InputAt(s.pointer); !ok {
			t.Errorf("%s: next undelivered frame %d already evicted", name, s.pointer)
		}
	}
}
