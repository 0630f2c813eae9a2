package core

import (
	"encoding/binary"
	"errors"
	"testing"
	"time"

	"retrolock/internal/netem"
	"retrolock/internal/simnet"
	"retrolock/internal/transport"
	"retrolock/internal/vclock"
)

var epoch = time.Date(2009, 6, 22, 0, 0, 0, 0, time.UTC)

// fakeMachine is a deterministic Machine+Snapshotter: its state is the
// rolling hash of every input it has consumed.
type fakeMachine struct {
	inputs []uint16
	hash   uint64
}

func (m *fakeMachine) StepFrame(in uint16) {
	m.inputs = append(m.inputs, in)
	m.hash = m.hash*1099511628211 + uint64(in) + 1
}

func (m *fakeMachine) StateHash() uint64 { return m.hash }

func (m *fakeMachine) Save() []byte {
	buf := make([]byte, 8+2*len(m.inputs))
	binary.LittleEndian.PutUint64(buf, m.hash)
	for i, in := range m.inputs {
		binary.LittleEndian.PutUint16(buf[8+2*i:], in)
	}
	return buf
}

func (m *fakeMachine) Restore(b []byte) error {
	if len(b) < 8 || (len(b)-8)%2 != 0 {
		return errors.New("bad snapshot")
	}
	m.hash = binary.LittleEndian.Uint64(b)
	m.inputs = nil
	for off := 8; off < len(b); off += 2 {
		m.inputs = append(m.inputs, binary.LittleEndian.Uint16(b[off:]))
	}
	return nil
}

// twoSiteEnv owns everything needed for a two-site session test.
type twoSiteEnv struct {
	v     *vclock.Virtual
	net   *simnet.Network
	conns [2]transport.Conn
}

func newTwoSiteEnv(t *testing.T, rtt time.Duration, loss float64) *twoSiteEnv {
	t.Helper()
	v := vclock.NewVirtual(epoch)
	n := simnet.New(v)
	c0, c1, err := transport.SimPair(n, "site0", "site1")
	if err != nil {
		t.Fatalf("SimPair: %v", err)
	}
	fwd := netem.Config{Delay: rtt / 2, Loss: loss, Seed: 12345}
	rev := fwd
	rev.Seed = 12346
	netem.Install(n, "site0", "site1", fwd, rev)
	return &twoSiteEnv{v: v, net: n, conns: [2]transport.Conn{c0, c1}}
}

// goAll starts fns as actors from one root actor, so none runs before all
// are registered (vclock.Virtual's spawn idiom), and waits for all of them.
func goAll(v *vclock.Virtual, fns ...func()) {
	dones := make([]<-chan struct{}, len(fns))
	<-v.Go(func() {
		for i, fn := range fns {
			dones[i] = v.Go(fn)
		}
	})
	for _, d := range dones {
		<-d
	}
}

// runPair runs two sessions to completion and returns them with their
// machines.
func runPair(t *testing.T, env *twoSiteEnv, frames int, cfg0, cfg1 Config, input func(site, frame int) uint16) (ses [2]*Session, machines [2]*fakeMachine) {
	t.Helper()
	cfgs := [2]Config{cfg0, cfg1}
	errs := [2]error{}
	var actors [2]func()
	for site := 0; site < 2; site++ {
		site := site
		m := &fakeMachine{}
		machines[site] = m
		s, err := NewSession(cfgs[site], env.v, epoch, m, []Peer{{Site: 1 - site, Conn: env.conns[site]}})
		if err != nil {
			t.Fatalf("NewSession(%d): %v", site, err)
		}
		ses[site] = s
		actors[site] = func() {
			if err := s.Handshake(5 * time.Second); err != nil {
				errs[site] = err
				return
			}
			errs[site] = s.RunFrames(frames, func(f int) uint16 { return input(site, f) }, nil)
			s.Drain(2 * time.Second)
		}
	}
	goAll(env.v, actors[:]...)
	for site, err := range errs {
		if err != nil {
			t.Fatalf("site %d: %v", site, err)
		}
	}
	return ses, machines
}

func TestTwoSiteLockstepConvergence(t *testing.T) {
	env := newTwoSiteEnv(t, 60*time.Millisecond, 0)
	input := func(site, frame int) uint16 {
		// Each site stirs only its own byte; the sync layer must merge.
		return uint16(frame*7+site*3) & 0x00FF << (8 * site)
	}
	_, machines := runPair(t, env, 300, Config{SiteNo: 0, WaitTimeout: 5 * time.Second},
		Config{SiteNo: 1, WaitTimeout: 5 * time.Second}, input)

	if machines[0].hash != machines[1].hash {
		t.Fatal("replicas diverged (logical consistency violated)")
	}
	if len(machines[0].inputs) != 300 {
		t.Fatalf("site 0 executed %d frames, want 300", len(machines[0].inputs))
	}
	// Local lag: the first BufFrame frames carry empty input.
	for f := 0; f < DefaultBufFrame; f++ {
		if machines[0].inputs[f] != 0 {
			t.Errorf("frame %d input %#x, want 0 (local lag)", f, machines[0].inputs[f])
		}
	}
	// Frame BufFrame carries both sites' frame-0 inputs.
	want := input(0, 0) | input(1, 0)
	if machines[0].inputs[DefaultBufFrame] != want {
		t.Errorf("frame %d input %#x, want %#x (merged frame-0 inputs)",
			DefaultBufFrame, machines[0].inputs[DefaultBufFrame], want)
	}
}

func TestTwoSiteSurvivesHeavyLoss(t *testing.T) {
	env := newTwoSiteEnv(t, 40*time.Millisecond, 0.20)
	input := func(site, frame int) uint16 {
		return uint16(frame+site) & 0x00FF << (8 * site)
	}
	_, machines := runPair(t, env, 400, Config{SiteNo: 0, WaitTimeout: 30 * time.Second},
		Config{SiteNo: 1, WaitTimeout: 30 * time.Second}, input)
	if machines[0].hash != machines[1].hash {
		t.Fatal("replicas diverged under 20% loss (reliability layer broken)")
	}
}

func TestTwoSiteSurvivesDuplicationAndReorder(t *testing.T) {
	v := vclock.NewVirtual(epoch)
	n := simnet.New(v)
	c0, c1, err := transport.SimPair(n, "site0", "site1")
	if err != nil {
		t.Fatal(err)
	}
	cfg := netem.Config{Delay: 30 * time.Millisecond, Jitter: 10 * time.Millisecond,
		Duplicate: 0.3, Reorder: 0.2, Seed: 5}
	cfg2 := cfg
	cfg2.Seed = 6
	netem.Install(n, "site0", "site1", cfg, cfg2)
	env := &twoSiteEnv{v: v, net: n, conns: [2]transport.Conn{c0, c1}}

	input := func(site, frame int) uint16 {
		return uint16(frame*5+site) & 0x00FF << (8 * site)
	}
	_, machines := runPair(t, env, 300, Config{SiteNo: 0, WaitTimeout: 30 * time.Second},
		Config{SiteNo: 1, WaitTimeout: 30 * time.Second}, input)
	if machines[0].hash != machines[1].hash {
		t.Fatal("replicas diverged under duplication+reordering")
	}
}

func TestFramesPacedAtCFPS(t *testing.T) {
	env := newTwoSiteEnv(t, 20*time.Millisecond, 0)
	start := env.v.Now()
	runPair(t, env, 120, Config{SiteNo: 0, WaitTimeout: 5 * time.Second},
		Config{SiteNo: 1, WaitTimeout: 5 * time.Second},
		func(site, frame int) uint16 { return 0 })
	elapsed := env.v.Now().Sub(start)
	// 120 frames at 60 FPS = 2s (plus handshake+drain slack).
	if elapsed < 1900*time.Millisecond || elapsed > 3*time.Second {
		t.Fatalf("120 frames took %v of virtual time, want ~2s", elapsed)
	}
}

func TestSyncInputTimesOutWithoutPeer(t *testing.T) {
	v := vclock.NewVirtual(epoch)
	n := simnet.New(v)
	ep := n.MustBind("lonely")
	conn := transport.NewSim(ep, "ghost")
	s, err := NewInputSync(Config{SiteNo: 0, WaitTimeout: 500 * time.Millisecond}, v, epoch,
		[]Peer{{Site: 1, Conn: conn}})
	if err != nil {
		t.Fatal(err)
	}
	done := v.Go(func() {
		start := v.Now()
		_, err := s.SyncInput(1, 0) // frames 0..BufFrame-1 deliver empty inputs instantly
		for f := 1; err == nil && f < 20; f++ {
			_, err = s.SyncInput(1, f)
		}
		if !errors.Is(err, ErrWaitTimeout) {
			t.Errorf("err = %v, want ErrWaitTimeout", err)
		}
		if waited := v.Now().Sub(start); waited < 500*time.Millisecond {
			t.Errorf("timed out after %v, want >= WaitTimeout", waited)
		}
	})
	<-done
}

func TestSyncInputEnforcesSequentialFrames(t *testing.T) {
	v := vclock.NewVirtual(epoch)
	n := simnet.New(v)
	ep := n.MustBind("a")
	s, err := NewInputSync(Config{SiteNo: 0}, v, epoch, []Peer{{Site: 1, Conn: transport.NewSim(ep, "b")}})
	if err != nil {
		t.Fatal(err)
	}
	done := v.Go(func() {
		if _, err := s.SyncInput(0, 5); err == nil {
			t.Error("out-of-order frame accepted")
		}
	})
	<-done
}

func TestStartupOffsetSmoothedByMasterSlave(t *testing.T) {
	// Start the slave 150 ms after the master (beyond one RTT). With
	// Algorithm 4 the slave catches up; by the end the two sites execute
	// frames nearly simultaneously.
	env := newTwoSiteEnv(t, 40*time.Millisecond, 0)
	const frames = 600
	type rec struct{ starts []time.Time }
	var recs [2]rec
	errs := [2]error{}
	var actors [2]func()
	for site := 0; site < 2; site++ {
		site := site
		m := &fakeMachine{}
		s, err := NewSession(Config{SiteNo: site, WaitTimeout: 10 * time.Second}, env.v, epoch, m,
			[]Peer{{Site: 1 - site, Conn: env.conns[site]}})
		if err != nil {
			t.Fatal(err)
		}
		actors[site] = func() {
			if site == 1 {
				env.v.Sleep(150 * time.Millisecond) // late starter
			}
			// No handshake: this test exercises raw startup skew.
			errs[site] = s.RunFrames(frames, func(int) uint16 { return 0 }, func(fi FrameInfo) {
				recs[site].starts = append(recs[site].starts, fi.Start)
			})
			s.Drain(2 * time.Second)
		}
	}
	goAll(env.v, actors[:]...)
	for site, err := range errs {
		if err != nil {
			t.Fatalf("site %d: %v", site, err)
		}
	}
	// Compare frame-start skew over the last 100 frames.
	var worst time.Duration
	for f := frames - 100; f < frames; f++ {
		d := recs[1].starts[f].Sub(recs[0].starts[f])
		if d < 0 {
			d = -d
		}
		if d > worst {
			worst = d
		}
	}
	if worst > 40*time.Millisecond {
		t.Fatalf("final skew %v; Algorithm 4 failed to absorb the 150ms startup offset", worst)
	}
}

func TestObserverConvergesWithPlayers(t *testing.T) {
	v := vclock.NewVirtual(epoch)
	n := simnet.New(v)
	// Full mesh: 0-1 players, 2 observer.
	mk := func(a, b string) (transport.Conn, transport.Conn) {
		x, y, err := transport.SimPair(n, a, b)
		if err != nil {
			t.Fatal(err)
		}
		return x, y
	}
	c01, c10 := mk("0->1", "1->0")
	c02, c20 := mk("0->2", "2->0")
	c12, c21 := mk("1->2", "2->1")

	peers := [3][]Peer{
		{{Site: 1, Conn: c01}, {Site: 2, Conn: c02}},
		{{Site: 0, Conn: c10}, {Site: 2, Conn: c12}},
		{{Site: 0, Conn: c20}, {Site: 1, Conn: c21}},
	}
	const frames = 200
	var machines [3]*fakeMachine
	var errs [3]error
	var actors [3]func()
	for site := 0; site < 3; site++ {
		site := site
		machines[site] = &fakeMachine{}
		s, err := NewSession(Config{SiteNo: site, WaitTimeout: 10 * time.Second}, v, epoch, machines[site], peers[site])
		if err != nil {
			t.Fatal(err)
		}
		actors[site] = func() {
			if errs[site] = s.Handshake(5 * time.Second); errs[site] != nil {
				return
			}
			errs[site] = s.RunFrames(frames, func(f int) uint16 {
				return uint16(f*3+site) & 0xFF << (8 * site % 16)
			}, nil)
			s.Drain(2 * time.Second)
		}
	}
	goAll(v, actors[:]...)
	for site := 0; site < 3; site++ {
		if errs[site] != nil {
			t.Fatalf("site %d: %v", site, errs[site])
		}
	}
	if machines[0].hash != machines[1].hash || machines[0].hash != machines[2].hash {
		t.Fatal("observer diverged from players")
	}
}

func TestLateJoinerCatchesUp(t *testing.T) {
	v := vclock.NewVirtual(epoch)
	n := simnet.New(v)
	c01, c10, err := transport.SimPair(n, "0-1", "1-0")
	if err != nil {
		t.Fatal(err)
	}
	cObs0, c0Obs, err := transport.SimPair(n, "obs-0", "0-obs")
	if err != nil {
		t.Fatal(err)
	}

	const (
		phase1 = 120
		phase2 = 150
	)
	input := func(site, f int) uint16 {
		return uint16(f*11+site) & 0x00FF << (8 * site)
	}
	m0, m1 := &fakeMachine{}, &fakeMachine{}
	s0, err := NewSession(Config{SiteNo: 0, WaitTimeout: 10 * time.Second}, v, epoch, m0, []Peer{{Site: 1, Conn: c01}})
	if err != nil {
		t.Fatal(err)
	}
	s1, err := NewSession(Config{SiteNo: 1, WaitTimeout: 10 * time.Second}, v, epoch, m1, []Peer{{Site: 0, Conn: c10}})
	if err != nil {
		t.Fatal(err)
	}

	var err0, err1, errObs error
	var obsHash uint64
	var obsFrames int
	d0 := func() {
		if err0 = s0.RunFrames(phase1, func(f int) uint16 { return input(0, f) }, nil); err0 != nil {
			return
		}
		// Admit the late joiner, then keep playing.
		if _, err := s0.AddJoiner(Peer{Site: 2, Conn: c0Obs}); err != nil {
			err0 = err
			return
		}
		err0 = s0.RunFrames(phase2, func(f int) uint16 { return input(0, f) }, nil)
		s0.Drain(4 * time.Second)
	}
	d1 := func() {
		if err1 = s1.RunFrames(phase1+phase2, func(f int) uint16 { return input(1, f) }, nil); err1 != nil {
			return
		}
		s1.Drain(4 * time.Second)
	}
	dObs := func() {
		// Give the players a head start.
		v.Sleep(phase1 * 17 * time.Millisecond)
		obs := &fakeMachine{}
		s, err := JoinSession(Config{SiteNo: 2, WaitTimeout: 10 * time.Second}, v, epoch, obs,
			Peer{Site: 0, Conn: cObs0}, 10*time.Second)
		if err != nil {
			errObs = err
			return
		}
		// Run until the observer has seen every frame the players will
		// execute.
		remaining := phase1 + phase2 - s.Frame()
		errObs = s.RunFrames(remaining, nil, nil)
		obsHash = obs.hash
		obsFrames = len(obs.inputs)
	}
	goAll(v, d0, d1, dObs)
	if err0 != nil || err1 != nil || errObs != nil {
		t.Fatalf("errors: site0=%v site1=%v observer=%v", err0, err1, errObs)
	}
	if obsHash != m0.hash || m0.hash != m1.hash {
		t.Fatalf("late joiner diverged: obs=%#x p0=%#x p1=%#x (obs executed %d frames)",
			obsHash, m0.hash, m1.hash, obsFrames)
	}
}

func TestNewSessionRejectsNilMachine(t *testing.T) {
	if _, err := NewSession(Config{}, vclockStub{}, epoch, nil, nil); err == nil {
		t.Fatal("nil machine accepted")
	}
}

func TestStatsAccounting(t *testing.T) {
	env := newTwoSiteEnv(t, 30*time.Millisecond, 0.1)
	ses, _ := runPair(t, env, 200, Config{SiteNo: 0, WaitTimeout: 10 * time.Second},
		Config{SiteNo: 1, WaitTimeout: 10 * time.Second},
		func(site, frame int) uint16 { return 1 << (8 * site) })
	for site, s := range ses {
		st := s.Sync().Stats()
		if st.MsgsSent == 0 || st.MsgsRcvd == 0 {
			t.Errorf("site %d: no traffic recorded: %+v", site, st)
		}
		if st.InputsFresh < 200 {
			t.Errorf("site %d: only %d fresh inputs for 200 frames", site, st.InputsFresh)
		}
		// 10% loss forces retransmission: duplicates must appear.
		if st.InputsDup == 0 {
			t.Errorf("site %d: no duplicate inputs despite loss", site)
		}
		if rtt := s.Sync().RTTTo(1 - site); rtt < 20*time.Millisecond || rtt > 60*time.Millisecond {
			t.Errorf("site %d: RTT estimate %v, want ~30-40ms", site, rtt)
		}
	}
}

func TestAdaptiveLagTracksRTTAndStaysConsistent(t *testing.T) {
	// Two sites with adaptive lag on a 120ms RTT link: the lag must grow
	// from its floor toward ~ceil((60ms+margin)/16.7ms) ≈ 5, and the
	// replicas must stay logically consistent across every transition.
	env := newTwoSiteEnv(t, 120*time.Millisecond, 0)
	const frames = 600
	machines := [2]*fakeMachine{{}, {}}
	sessions := [2]*Session{}
	errs := [2]error{}
	var actors [2]func()
	for site := 0; site < 2; site++ {
		site := site
		s, err := NewSession(Config{SiteNo: site, BufFrame: 2, WaitTimeout: 20 * time.Second},
			env.v, epoch, machines[site],
			[]Peer{{Site: 1 - site, Conn: env.conns[site]}},
			WithAdaptiveLag(AdaptiveLag{Min: 2, Max: 12, Margin: 10 * time.Millisecond, Every: 30}))
		if err != nil {
			t.Fatal(err)
		}
		sessions[site] = s
		actors[site] = func() {
			if errs[site] = s.Handshake(5 * time.Second); errs[site] != nil {
				return
			}
			errs[site] = s.RunFrames(frames, func(f int) uint16 {
				return uint16(f*3+site) & 0xFF << (8 * site)
			}, nil)
			s.Drain(2 * time.Second)
		}
	}
	goAll(env.v, actors[:]...)
	for site, err := range errs {
		if err != nil {
			t.Fatalf("site %d: %v", site, err)
		}
	}
	if machines[0].hash != machines[1].hash {
		t.Fatal("adaptive-lag replicas diverged")
	}
	for site, s := range sessions {
		changes, avg := s.LagStats()
		if changes == 0 {
			t.Errorf("site %d: lag never adapted from the floor of 2 at RTT 120ms", site)
		}
		if avg < 3 || avg > 8 {
			t.Errorf("site %d: average lag %.1f, want ~5 for RTT 120ms", site, avg)
		}
		if got := s.Sync().Lag(); got < 4 || got > 7 {
			t.Errorf("site %d: final lag %d, want ~5", site, got)
		}
	}
}

func TestAdaptiveLagShrinksOnFastLinks(t *testing.T) {
	env := newTwoSiteEnv(t, 20*time.Millisecond, 0)
	machines := [2]*fakeMachine{{}, {}}
	sessions := [2]*Session{}
	errs := [2]error{}
	var actors [2]func()
	for site := 0; site < 2; site++ {
		site := site
		s, err := NewSession(Config{SiteNo: site, WaitTimeout: 20 * time.Second}, // starts at 6
			env.v, epoch, machines[site],
			[]Peer{{Site: 1 - site, Conn: env.conns[site]}},
			WithAdaptiveLag(AdaptiveLag{Min: 1, Max: 12, Margin: 10 * time.Millisecond, Every: 30}))
		if err != nil {
			t.Fatal(err)
		}
		sessions[site] = s
		actors[site] = func() {
			errs[site] = s.RunFrames(400, func(f int) uint16 {
				return uint16(f) & 0xFF << (8 * site)
			}, nil)
			s.Drain(2 * time.Second)
		}
	}
	goAll(env.v, actors[:]...)
	for site, err := range errs {
		if err != nil {
			t.Fatalf("site %d: %v", site, err)
		}
	}
	if machines[0].hash != machines[1].hash {
		t.Fatal("diverged")
	}
	// ceil((10ms + 10ms margin)/16.7) = 2: responsiveness better than the
	// fixed 100ms on a LAN-grade link.
	for site, s := range sessions {
		if got := s.Sync().Lag(); got > 3 {
			t.Errorf("site %d: lag %d on a 20ms link, want <= 3 (shrunk)", site, got)
		}
	}
}

func TestSetLagManualTransitions(t *testing.T) {
	// Exercise raise and lower directly through InputSync.
	v := vclock.NewVirtual(epoch)
	n := simnet.New(v)
	c0, c1, err := transport.SimPair(n, "m0", "m1")
	if err != nil {
		t.Fatal(err)
	}
	mk := func(site int, conn transport.Conn) *InputSync {
		s, err := NewInputSync(Config{SiteNo: site, WaitTimeout: 5 * time.Second}, v, epoch,
			[]Peer{{Site: 1 - site, Conn: conn}})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s0, s1 := mk(0, c0), mk(1, c1)
	var got0, got1 []uint16
	done := v.Go(func() {
		for f := 0; f < 120; f++ {
			switch f {
			case 40:
				s0.SetLag(10) // raise mid-game
				s1.SetLag(10)
			case 80:
				s0.SetLag(3) // lower mid-game
				s1.SetLag(3)
			}
			a, err := s0.SyncInput(uint16(f)&0xFF, f)
			if err != nil {
				t.Errorf("s0 frame %d: %v", f, err)
				return
			}
			b, err := s1.SyncInput(uint16(f)&0xFF<<8, f)
			if err != nil {
				t.Errorf("s1 frame %d: %v", f, err)
				return
			}
			got0 = append(got0, a)
			got1 = append(got1, b)
			v.Sleep(16667 * time.Microsecond)
		}
	})
	<-done
	for f := range got0 {
		if got0[f] != got1[f] {
			t.Fatalf("frame %d: inputs diverged across lag changes: %#x vs %#x", f, got0[f], got1[f])
		}
	}
}

// A blocked SyncInput naps only on a virtual clock whose every peer conn
// stack is a transport.Notifier. On the host clock, or once any peer — a
// late joiner included — sits behind a conn that hides the interface, it
// polls every pollInterval for the rest of the session.
func TestSyncInputNapsOnlyWhenEveryPeerRings(t *testing.T) {
	v := vclock.NewVirtual(epoch)
	a, b, err := transport.SimPair(simnet.New(v), "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	site := func(clock vclock.Clock, c transport.Conn) *InputSync {
		s, err := NewInputSync(Config{SiteNo: 0}, clock, epoch, []Peer{{Site: 1, Conn: c}})
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	hidden := struct{ transport.Conn }{b}
	if site(vclock.System, a).napReady() {
		t.Error("a site on the host clock naps")
	}
	if site(v, hidden).napReady() {
		t.Error("a site whose peer conn hides Notifier naps")
	}
	s := site(v, a)
	if !s.napReady() {
		t.Fatal("a site over a simulated conn polls")
	}
	s.peerList = append(s.peerList, &peerState{Peer: Peer{Site: 2, Conn: hidden}})
	if s.napReady() || s.napReady() {
		t.Error("a site still naps after a peer joined behind a hiding conn")
	}
}

// A blocked SyncInput that naps on its bell, and the deliveries that ring
// it, allocate nothing in steady state. The one-way delay exceeds the local
// lag, so the sites keep waiting.
func TestSyncInputNapDoesNotAllocate(t *testing.T) {
	v := vclock.NewVirtual(epoch)
	n := simnet.New(v)
	n.SetLink("a", "b", simnet.ConstantDelay(150*time.Millisecond))
	n.SetLink("b", "a", simnet.ConstantDelay(150*time.Millisecond))
	a, b, err := transport.SimPair(n, "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	var sites [2]*InputSync
	for i, c := range []transport.Conn{a, b} {
		if sites[i], err = NewInputSync(Config{SiteNo: i}, v, epoch, []Peer{{Site: 1 - i, Conn: c}}); err != nil {
			t.Fatal(err)
		}
	}
	frame := 0
	step := func() {
		for i, s := range sites {
			if _, err := s.SyncInput(uint16(frame)<<(8*i), frame); err != nil {
				t.Fatal(err)
			}
		}
		frame++
		v.Sleep(16667 * time.Microsecond)
	}
	<-v.Go(func() {
		for frame < 300 {
			step()
		}
		waits := sites[0].Stats().Waits
		if allocs := testing.AllocsPerRun(200, step); allocs != 0 {
			t.Errorf("a napping frame allocates %.1f times", allocs)
		}
		if w := sites[0].Stats().Waits - waits; w < 20 || !sites[0].napReady() {
			t.Errorf("site 0 napped in %d of 201 frames, want 20 or more", w)
		}
	})
}
