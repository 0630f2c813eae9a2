package flight_test

import (
	"testing"
	"time"

	"retrolock/internal/core"
	"retrolock/internal/flight"
	"retrolock/internal/obs"
	"retrolock/internal/rom/games"
)

// TestRecorderSteadyStateZeroAlloc pins the recorder's own hot path: a ring
// write per frame plus a buffer-reusing savestate capture (SnapEvery = 1
// makes every frame snapshot, the worst case) must not allocate once the
// slot buffers reach size.
func TestRecorderSteadyStateZeroAlloc(t *testing.T) {
	game := games.MustLoad("pong")
	console, err := game.Boot()
	if err != nil {
		t.Fatal(err)
	}
	rec := flight.NewRecorder(console, flight.Options{
		Site: 0, Game: "pong", ROM: game.Encode(), SnapEvery: 1, Snapshots: 4,
	})
	f := 0
	step := func() {
		console.StepFrame(uint16(f))
		rec.RecordFrame(f, uint16(f), console.StateHash(), 0)
		rec.RecordRemoteHash(1, f, uint64(f))
		f++
	}
	for f < 50 { // warm-up: every snapshot slot captured at least once
		step()
	}
	allocs := testing.AllocsPerRun(500, step)
	if allocs != 0 {
		t.Fatalf("steady-state recording allocates %.1f times per frame, want 0", allocs)
	}
}

// --- full frame loop with the black box attached ---------------------------

// stepClock is a hand-cranked clock: no scheduler, no goroutines, no
// allocation.
type stepClock struct{ t time.Time }

func (c *stepClock) Now() time.Time { return c.t }
func (c *stepClock) Sleep(d time.Duration) {
	if d > 0 {
		c.t = c.t.Add(d)
	}
}

// testPipe is a lossless in-memory conn over preallocated slots, so the
// transport contributes zero allocations.
type testPipe struct {
	peer        *testPipe
	slots       [][]byte
	head, count int
}

func newTestPipePair() (*testPipe, *testPipe) {
	mk := func() *testPipe {
		c := &testPipe{slots: make([][]byte, 64)}
		for i := range c.slots {
			c.slots[i] = make([]byte, 0, 4096)
		}
		return c
	}
	a, b := mk(), mk()
	a.peer, b.peer = b, a
	return a, b
}

func (c *testPipe) Send(p []byte) error {
	q := c.peer
	if q.count == len(q.slots) {
		return nil // full: drop, like UDP
	}
	i := (q.head + q.count) % len(q.slots)
	q.slots[i] = append(q.slots[i][:0], p...)
	q.count++
	return nil
}

func (c *testPipe) TryRecv() ([]byte, bool) {
	if c.count == 0 {
		return nil, false
	}
	p := c.slots[c.head]
	c.head = (c.head + 1) % len(c.slots)
	c.count--
	return p, true
}

func (c *testPipe) Close() error       { return nil }
func (c *testPipe) LocalAddr() string  { return "test" }
func (c *testPipe) RemoteAddr() string { return "test" }

// TestFrameLoopZeroAllocWithFlight is the tentpole's allocation gate: the
// full Algorithm 1 loop over real consoles with observability AND the flight
// recorder attached — per-frame ring write, LastWait sampling, the stall
// check, the panic guard, and a savestate capture on every single frame —
// must stay at zero allocations in steady state. The black box rides the hot
// path for free or it cannot be always-on.
func TestFrameLoopZeroAllocWithFlight(t *testing.T) {
	epoch := time.Unix(0, 0)
	clk := &stepClock{t: epoch}
	c0, c1 := newTestPipePair()
	conns := [2]*testPipe{c0, c1}
	game := games.MustLoad("pong")
	image := game.Encode()
	reg := obs.NewRegistry()
	var sessions [2]*core.Session
	var recorders [2]*flight.Recorder
	for site := 0; site < 2; site++ {
		console, err := game.Boot()
		if err != nil {
			t.Fatal(err)
		}
		// Hash exchange off: the digest broadcast legitimately allocates its
		// message, and the recorder's RecordFrame runs regardless.
		s, err := core.NewSession(core.Config{SiteNo: site, HashInterval: -1}, clk, epoch,
			console, []core.Peer{{Site: 1 - site, Conn: conns[site]}})
		if err != nil {
			t.Fatal(err)
		}
		s.SetObs(core.NewSessionObs(reg, site, 1<<12, epoch))
		rec := flight.NewRecorder(console, flight.Options{
			Site: site, Game: "pong", ROM: image, Config: s.Sync().Config(),
			SnapEvery: 1, Snapshots: 4, StallThreshold: time.Minute,
		})
		s.SetFlightRecorder(rec)
		sessions[site] = s
		recorders[site] = rec
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
		clk.Sleep(core.DefaultSendInterval)
	}
	for f := 0; f < 300; f++ { // warm-up: scratch buffers reach steady size
		step()
	}
	allocs := testing.AllocsPerRun(500, func() { step() })
	if allocs != 0 {
		t.Fatalf("frame loop with flight recorder allocates %.1f times per frame, want 0", allocs)
	}
	// The recorders must actually have been live, or the gate proves nothing.
	for site, rec := range recorders {
		if rec.Bundle() != nil {
			t.Errorf("site %d: recorder fired during a healthy run", site)
		}
		var sink countWriter
		if err := rec.Dump(&sink); err != nil {
			t.Fatalf("site %d dump: %v", site, err)
		}
		if sink.n == 0 {
			t.Errorf("site %d: black box dumped nothing", site)
		}
	}
}

type countWriter struct{ n int }

func (w *countWriter) Write(p []byte) (int, error) {
	w.n += len(p)
	return len(p), nil
}
