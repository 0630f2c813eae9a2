package core

import (
	"errors"
	"testing"
	"time"

	"retrolock/internal/transport"
)

func TestHashMsgRoundTrip(t *testing.T) {
	sender, frame, hash, err := decodeHash(appendHash(nil, 1, 1234, 0xDEADBEEFCAFEBABE))
	if err != nil {
		t.Fatal(err)
	}
	if sender != 1 || frame != 1234 || hash != 0xDEADBEEFCAFEBABE {
		t.Fatalf("got %d/%d/%x", sender, frame, hash)
	}
	if _, _, _, err := decodeHash([]byte{msgHash, 1}); err == nil {
		t.Error("short hash message accepted")
	}
	bad := appendHash(nil, 0, 0, 0)
	bad[0] = 0xAA
	if _, _, _, err := decodeHash(bad); err == nil {
		t.Error("wrong type accepted")
	}
}

func TestHashLogDetectsMismatchBothOrders(t *testing.T) {
	// Remote digest first, own second.
	l := newHashLog(10)
	l.remote(1, 10, 0xAAAA)
	if l.err() != nil {
		t.Fatal("error before own hash known")
	}
	l.record(10, 0xBBBB)
	var de *DivergenceError
	if !errors.As(l.err(), &de) {
		t.Fatalf("err = %v, want DivergenceError", l.err())
	}
	if de.Frame != 10 || de.Ours != 0xBBBB || de.Theirs != 0xAAAA || de.Site != 1 {
		t.Fatalf("error details: %+v", de)
	}

	// Own digest first, remote second.
	l2 := newHashLog(10)
	l2.record(20, 0x1)
	l2.remote(0, 20, 0x2)
	if l2.err() == nil {
		t.Fatal("mismatch with own-first ordering not detected")
	}
}

func TestHashLogMatchingDigestsQuiet(t *testing.T) {
	l := newHashLog(5)
	for f := 0; f <= 100; f += 5 {
		l.record(f, uint64(f)*7)
		l.remote(1, f, uint64(f)*7)
	}
	if l.err() != nil {
		t.Fatalf("false positive: %v", l.err())
	}
}

func TestHashLogIgnoresOffIntervalFrames(t *testing.T) {
	l := newHashLog(10)
	l.record(7, 1) // not a multiple of the interval: ignored
	if len(l.own) != 0 {
		t.Fatal("off-interval frame recorded")
	}
}

func TestHashLogBoundedMemory(t *testing.T) {
	l := newHashLog(1)
	for f := 0; f < 10*hashHistory; f++ {
		l.record(f, uint64(f))
		l.remote(1, f+5*hashHistory, uint64(f)) // far-future pending
	}
	if len(l.own) > hashHistory || len(l.pending) > hashHistory {
		t.Fatalf("unbounded growth: own=%d pending=%d", len(l.own), len(l.pending))
	}
}

// nonDeterministicMachine diverges from its twin: site 1's copy flips a bit
// at frame 100, simulating the §5 hazard (a game reading a host-dependent
// resource).
type nonDeterministicMachine struct {
	fakeMachine
	site int
}

func (m *nonDeterministicMachine) StepFrame(in uint16) {
	if m.site == 1 && len(m.inputs) == 100 {
		in ^= 0x8000
	}
	m.fakeMachine.StepFrame(in)
}

func TestSessionDetectsDivergence(t *testing.T) {
	env := newTwoSiteEnv(t, 30*time.Millisecond, 0)
	errs := [2]error{}
	var actors [2]func()
	for site := 0; site < 2; site++ {
		site := site
		m := &nonDeterministicMachine{site: site}
		s, err := NewSession(Config{SiteNo: site, WaitTimeout: 10 * time.Second},
			env.v, epoch, m, []Peer{{Site: 1 - site, Conn: env.conns[site]}})
		if err != nil {
			t.Fatal(err)
		}
		actors[site] = func() {
			if errs[site] = s.Handshake(5 * time.Second); errs[site] != nil {
				return
			}
			errs[site] = s.RunFrames(400, func(int) uint16 { return 0 }, nil)
			s.Drain(time.Second)
		}
	}
	goAll(env.v, actors[:]...)
	detected := false
	for site, err := range errs {
		var de *DivergenceError
		if errors.As(err, &de) {
			detected = true
			if de.Frame < 100 || de.Frame > 160 {
				t.Errorf("site %d detected divergence at frame %d, want soon after 100", site, de.Frame)
			}
		}
	}
	if !detected {
		t.Fatal("neither site detected the injected divergence")
	}
}

func TestSessionNoFalseDivergence(t *testing.T) {
	env := newTwoSiteEnv(t, 50*time.Millisecond, 0.05)
	ses, _ := runPair(t, env, 300, Config{SiteNo: 0, WaitTimeout: 10 * time.Second},
		Config{SiteNo: 1, WaitTimeout: 10 * time.Second},
		func(site, frame int) uint16 { return uint16(frame) & 0xFF << (8 * site) })
	for site, s := range ses {
		if err := s.Diverged(); err != nil {
			t.Errorf("site %d false divergence: %v", site, err)
		}
	}
}

func TestQueuedJoinerAdmittedAtFrameBoundary(t *testing.T) {
	v := newTwoSiteEnv(t, 20*time.Millisecond, 0)
	// Wire an observer connection pair up front.
	obsConn, srvConn, err := transport.SimPair(v.net, "obs", "p0-obs")
	if err != nil {
		t.Fatal(err)
	}

	m0, m1 := &fakeMachine{}, &fakeMachine{}
	s0, err := NewSession(Config{SiteNo: 0, WaitTimeout: 10 * time.Second}, v.v, epoch, m0,
		[]Peer{{Site: 1, Conn: v.conns[0]}})
	if err != nil {
		t.Fatal(err)
	}
	s1, err := NewSession(Config{SiteNo: 1, WaitTimeout: 10 * time.Second}, v.v, epoch, m1,
		[]Peer{{Site: 0, Conn: v.conns[1]}})
	if err != nil {
		t.Fatal(err)
	}

	const frames = 240
	input := func(site int) func(int) uint16 {
		return func(f int) uint16 { return uint16(f+site) & 0xFF << (8 * site) }
	}
	var e0, e1, eObs error
	var obsHash uint64
	d0 := func() {
		e0 = s0.RunFrames(frames, input(0), nil)
		s0.Drain(3 * time.Second)
	}
	d1 := func() {
		e1 = s1.RunFrames(frames, input(1), nil)
		s1.Drain(3 * time.Second)
	}
	dObs := func() {
		v.v.Sleep(500 * time.Millisecond) // join mid-game
		s0.QueueJoiner(Peer{Site: 2, Conn: srvConn})
		obs := &fakeMachine{}
		ses, err := JoinSession(Config{SiteNo: 2, WaitTimeout: 10 * time.Second}, v.v, epoch, obs,
			Peer{Site: 0, Conn: obsConn}, 10*time.Second)
		if err != nil {
			eObs = err
			return
		}
		eObs = ses.RunFrames(frames-ses.Frame(), nil, nil)
		obsHash = obs.hash
	}
	goAll(v.v, d0, d1, dObs)
	if e0 != nil || e1 != nil || eObs != nil {
		t.Fatalf("errors: %v / %v / %v", e0, e1, eObs)
	}
	if obsHash != m0.hash {
		t.Fatal("queued joiner diverged from the players")
	}
}
