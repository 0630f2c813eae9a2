// The 0-allocs/op gate for the steady-state hot paths: the sync loop (plain,
// traced, span-journaled, flight-recorded, capture-tapped), the incremental
// digest and the delta savestate here, the relayd packet path in
// relay_bench_test.go and the history retention tick in
// history_bench_test.go. Every benchmark at the repo root must report
// 0 allocs/op under
//
//	make bench-hotpath
//
// and each one has a tier-1 testing.AllocsPerRun twin, so `go test ./...`
// catches a new allocation too. Their ns/op are for local comparison only:
// the performance record is bench/ (BENCHMARK.json), compared in same-host
// pairs, and the paper's figures come from cmd/experiment.
package retrolock_test

import (
	"testing"
	"time"

	"retrolock/internal/capture"
	"retrolock/internal/core"
	"retrolock/internal/flight"
	"retrolock/internal/obs"
	"retrolock/internal/rom/games"
	"retrolock/internal/simnet"
	"retrolock/internal/transport"
	"retrolock/internal/vclock"
)

// BenchmarkStateHashIncremental measures the digest in its per-frame shape:
// one emulated pong frame marks about 51 of the 256 pages (the blitter clears
// the screen) but changes about 6.4 of them (EXPERIMENTS.md, "Content-checked
// StateHash"); the hash compares the marked pages with its shadow and
// re-digests only the changed ones, instead of folding the full 64 KiB.
func BenchmarkStateHashIncremental(b *testing.B) {
	console, err := games.MustLoad("pong").Boot()
	if err != nil {
		b.Fatal(err)
	}
	console.StepFrame(0)
	_ = console.StateHash()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		console.StepFrame(uint16(i))
		_ = console.StateHash()
	}
}

// BenchmarkSavestateDelta measures capturing one frame of dirty pages as a
// delta savestate — the flight recorder's steady-state snapshot cost.
func BenchmarkSavestateDelta(b *testing.B) {
	console, err := games.MustLoad("duel").Boot()
	if err != nil {
		b.Fatal(err)
	}
	console.StepFrame(0)
	base := console.AppendSaveBase(nil)
	buf := make([]byte, 0, len(base))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		console.StepFrame(uint16(i))
		buf = console.AppendSaveDelta(buf[:0])
	}
}

// BenchmarkSyncInputNoWait measures the per-frame cost of Algorithm 2 when
// the remote inputs are already buffered (the common case below threshold).
func BenchmarkSyncInputNoWait(b *testing.B) {
	v := vclock.NewVirtual(time.Unix(0, 0))
	n := simnet.New(v)
	c0, c1, err := transport.SimPair(n, "a", "b")
	if err != nil {
		b.Fatal(err)
	}
	mk := func(site int, conn transport.Conn) *core.InputSync {
		s, err := core.NewInputSync(core.Config{SiteNo: site}, v, v.Now(),
			[]core.Peer{{Site: 1 - site, Conn: conn}})
		if err != nil {
			b.Fatal(err)
		}
		return s
	}
	s0, s1 := mk(0, c0), mk(1, c1)
	done := v.Go(func() {
		frame := 0
		step := func() bool {
			if _, err := s0.SyncInput(1, frame); err != nil {
				b.Error(err)
				return false
			}
			if _, err := s1.SyncInput(1<<8, frame); err != nil {
				b.Error(err)
				return false
			}
			frame++
			v.Sleep(16667 * time.Microsecond)
			return true
		}
		for i := 0; i < 300; i++ { // warm up scratch buffers and pools
			if !step() {
				return
			}
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if !step() {
				return
			}
		}
	})
	<-done
}

// stepClock is a hand-cranked clock for the hot-path benchmark: no
// scheduler, no goroutines, no allocation.
type stepClock struct{ t time.Time }

func (c *stepClock) Now() time.Time { return c.t }
func (c *stepClock) Sleep(d time.Duration) {
	if d > 0 {
		c.t = c.t.Add(d)
	}
}

// benchPipe is a lossless conn over preallocated slots, so the transport
// contributes zero allocations and the benchmark isolates the sync module.
type benchPipe struct {
	peer        *benchPipe
	slots       [][]byte
	head, count int
}

func newBenchPipePair() (*benchPipe, *benchPipe) {
	mk := func() *benchPipe {
		c := &benchPipe{slots: make([][]byte, 64)}
		for i := range c.slots {
			c.slots[i] = make([]byte, 0, 4096)
		}
		return c
	}
	a, b := mk(), mk()
	a.peer, b.peer = b, a
	return a, b
}

func (c *benchPipe) Send(p []byte) error {
	q := c.peer
	if q.count == len(q.slots) {
		return nil // full: drop, like UDP
	}
	i := (q.head + q.count) % len(q.slots)
	q.slots[i] = append(q.slots[i][:0], p...)
	q.count++
	return nil
}

func (c *benchPipe) TryRecv() ([]byte, bool) {
	if c.count == 0 {
		return nil, false
	}
	p := c.slots[c.head]
	c.head = (c.head + 1) % len(c.slots)
	c.count--
	return p, true
}

func (c *benchPipe) Close() error       { return nil }
func (c *benchPipe) LocalAddr() string  { return "bench" }
func (c *benchPipe) RemoteAddr() string { return "bench" }

// BenchmarkSyncHotPath measures the steady-state per-frame cost of the full
// send+receive wire path for a two-player frame (both sites), with -benchmem
// pinning the zero-allocation property: encode, decode and input buffering
// all run out of per-site scratch memory.
func BenchmarkSyncHotPath(b *testing.B) {
	clk := &stepClock{t: time.Unix(0, 0)}
	c0, c1 := newBenchPipePair()
	mk := func(site int, conn transport.Conn) *core.InputSync {
		s, err := core.NewInputSync(core.Config{SiteNo: site}, clk, clk.Now(),
			[]core.Peer{{Site: 1 - site, Conn: conn}})
		if err != nil {
			b.Fatal(err)
		}
		return s
	}
	s0, s1 := mk(0, c0), mk(1, c1)
	step := func(f int) {
		if _, err := s0.SyncInput(uint16(f)&0xFF, f); err != nil {
			b.Fatal(err)
		}
		if _, err := s1.SyncInput(uint16(f)<<8, f); err != nil {
			b.Fatal(err)
		}
		clk.Sleep(core.DefaultSendInterval)
	}
	frame := 0
	for ; frame < 300; frame++ { // warm-up to steady-state scratch sizes
		step(frame)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(frame)
		frame++
	}
}

// BenchmarkSyncHotPathTraced is BenchmarkSyncHotPath with the live
// observability bundle attached — tracer ring, histograms, counters. Run
// both with -benchmem to see that the instrumentation stays allocation-free
// and costs only a handful of nanoseconds per frame.
func BenchmarkSyncHotPathTraced(b *testing.B) {
	clk := &stepClock{t: time.Unix(0, 0)}
	c0, c1 := newBenchPipePair()
	reg := obs.NewRegistry()
	mk := func(site int, conn transport.Conn) *core.InputSync {
		s, err := core.NewInputSync(core.Config{SiteNo: site}, clk, clk.Now(),
			[]core.Peer{{Site: 1 - site, Conn: conn}})
		if err != nil {
			b.Fatal(err)
		}
		s.SetObs(core.NewSessionObs(reg, site, 1<<14, clk.Now()))
		return s
	}
	s0, s1 := mk(0, c0), mk(1, c1)
	step := func(f int) {
		if _, err := s0.SyncInput(uint16(f)&0xFF, f); err != nil {
			b.Fatal(err)
		}
		if _, err := s1.SyncInput(uint16(f)<<8, f); err != nil {
			b.Fatal(err)
		}
		clk.Sleep(core.DefaultSendInterval)
	}
	frame := 0
	for ; frame < 300; frame++ { // warm-up to steady-state scratch sizes
		step(frame)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(frame)
		frame++
	}
}

// BenchmarkSyncHotPathSpans is BenchmarkSyncHotPath with input-journey span
// journals attached to both sites and per-frame exec reports flowing, i.e.
// the full cross-site tracing pipeline: pressed/sent/received/executed
// stamps, clock-offset estimation from echoes, and the derived latency and
// skew histogram observations. The CI allocation gate greps this benchmark's
// allocs/op — span recording must stay free on the hot path.
func BenchmarkSyncHotPathSpans(b *testing.B) {
	clk := &stepClock{t: time.Unix(0, 0)}
	c0, c1 := newBenchPipePair()
	reg := obs.NewRegistry()
	mk := func(site int, conn transport.Conn) *core.InputSync {
		s, err := core.NewInputSync(core.Config{SiteNo: site}, clk, clk.Now(),
			[]core.Peer{{Site: 1 - site, Conn: conn}})
		if err != nil {
			b.Fatal(err)
		}
		s.SetJournal(core.NewInputJourney(reg, site, clk.Now()))
		return s
	}
	s0, s1 := mk(0, c0), mk(1, c1)
	step := func(f int) {
		now := clk.Now()
		s0.ReportExec(f, now)
		s1.ReportExec(f, now)
		if _, err := s0.SyncInput(uint16(f)&0xFF, f); err != nil {
			b.Fatal(err)
		}
		if _, err := s1.SyncInput(uint16(f)<<8, f); err != nil {
			b.Fatal(err)
		}
		clk.Sleep(core.DefaultSendInterval)
	}
	frame := 0
	for ; frame < 300; frame++ { // warm-up to steady-state scratch sizes
		step(frame)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(frame)
		frame++
	}
}

// BenchmarkSyncHotPathFlight measures the full steady-state frame loop —
// pacing, sync, real console emulation, state hashing — with the live
// observability bundle AND the black-box flight recorder attached, snapshot
// capture forced on every frame (SnapEvery = 1, far past the production
// cadence). With -benchmem it pins the recorder's zero-allocation property
// end to end; the CI allocation gate greps this benchmark's allocs/op.
func BenchmarkSyncHotPathFlight(b *testing.B) {
	clk := &stepClock{t: time.Unix(0, 0)}
	c0, c1 := newBenchPipePair()
	conns := [2]transport.Conn{c0, c1}
	game := games.MustLoad("pong")
	image := game.Encode()
	reg := obs.NewRegistry()
	var sessions [2]*core.Session
	for site := 0; site < 2; site++ {
		console, err := game.Boot()
		if err != nil {
			b.Fatal(err)
		}
		s, err := core.NewSession(core.Config{SiteNo: site}, clk, clk.Now(),
			console, []core.Peer{{Site: 1 - site, Conn: conns[site]}})
		if err != nil {
			b.Fatal(err)
		}
		s.SetObs(core.NewSessionObs(reg, site, 1<<14, clk.Now()))
		rec := flight.NewRecorder(console, flight.Options{
			Site: site, Game: "pong", ROM: image, Config: s.Sync().Config(),
			SnapEvery: 1, Registry: reg,
		})
		s.SetFlightRecorder(rec)
		sessions[site] = s
	}
	inputs := [2]func(int) uint16{
		func(f int) uint16 { return uint16(f) & 0x00FF },
		func(f int) uint16 { return uint16(f) & 0x00FF << 8 },
	}
	step := func() {
		for site, s := range sessions {
			if err := s.RunFrames(1, inputs[site], nil); err != nil {
				b.Fatal(err)
			}
		}
		clk.Sleep(core.DefaultSendInterval)
	}
	for f := 0; f < 300; f++ { // warm-up to steady-state scratch sizes
		step()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step()
	}
}

// BenchmarkSyncHotPathCaptured is BenchmarkSyncHotPath with an RKCP capture
// tap wrapped around both conns — the configuration a client runs when
// recording a session for replay. Compare against the untapped benchmark to
// see the tap's cost: one mutex round and one arena copy per datagram,
// zero allocations.
func BenchmarkSyncHotPathCaptured(b *testing.B) {
	clk := &stepClock{t: time.Unix(0, 0)}
	c0, c1 := newBenchPipePair()
	// Budgets sized so the arena keeps absorbing payloads for the whole
	// run; once full the tap degrades to counted drops, which cost less.
	rec := capture.NewRecorder(1<<20, 1<<26)
	mk := func(site int, conn transport.Conn) *core.InputSync {
		s, err := core.NewInputSync(core.Config{SiteNo: site}, clk, clk.Now(),
			[]core.Peer{{Site: 1 - site, Conn: transport.NewTap(conn, clk, site, rec)}})
		if err != nil {
			b.Fatal(err)
		}
		return s
	}
	s0, s1 := mk(0, c0), mk(1, c1)
	step := func(f int) {
		if _, err := s0.SyncInput(uint16(f)&0xFF, f); err != nil {
			b.Fatal(err)
		}
		if _, err := s1.SyncInput(uint16(f)<<8, f); err != nil {
			b.Fatal(err)
		}
		clk.Sleep(core.DefaultSendInterval)
	}
	frame := 0
	for ; frame < 300; frame++ { // warm-up to steady-state scratch sizes
		step(frame)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		step(frame)
		frame++
	}
}
