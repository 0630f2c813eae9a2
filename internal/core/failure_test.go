package core

import (
	"errors"
	"testing"
	"testing/quick"
	"time"

	"retrolock/internal/netem"
	"retrolock/internal/simnet"
	"retrolock/internal/transport"
)

// blackhole drops every packet: a full network partition.
type blackhole struct{}

func (blackhole) Plan(time.Time, int) []time.Duration { return nil }

// TestPartitionFreezesThenHeals exercises §3.1's failure semantics: "In the
// event that the remote site or the network fails, the local site will be
// stuck in the loop freezing the game until it is recovered." The game must
// freeze during a 2-second partition, resume afterwards, and stay
// logically consistent.
func TestPartitionFreezesThenHeals(t *testing.T) {
	env := newTwoSiteEnv(t, 40*time.Millisecond, 0)
	const frames = 600

	// Partition from t=2s to t=4s.
	env.v.ScheduleAfter(2*time.Second, func() {
		env.net.SetLink("site0", "site1", blackhole{})
		env.net.SetLink("site1", "site0", blackhole{})
	})
	env.v.ScheduleAfter(4*time.Second, func() {
		fwd := netem.Config{Delay: 20 * time.Millisecond, Seed: 777}
		rev := netem.Config{Delay: 20 * time.Millisecond, Seed: 778}
		env.net.SetLink("site0", "site1", netem.New(fwd))
		env.net.SetLink("site1", "site0", netem.New(rev))
	})

	var maxGap [2]time.Duration
	machines := [2]*fakeMachine{{}, {}}
	errs := [2]error{}
	var actors [2]func()
	for site := 0; site < 2; site++ {
		site := site
		s, err := NewSession(Config{SiteNo: site, WaitTimeout: 30 * time.Second}, env.v, epoch,
			machines[site], []Peer{{Site: 1 - site, Conn: env.conns[site]}})
		if err != nil {
			t.Fatal(err)
		}
		actors[site] = func() {
			var prev time.Time
			errs[site] = s.RunFrames(frames, func(f int) uint16 {
				return uint16(f) & 0xFF << (8 * site)
			}, func(fi FrameInfo) {
				if !prev.IsZero() {
					if gap := fi.Start.Sub(prev); gap > maxGap[site] {
						maxGap[site] = gap
					}
				}
				prev = fi.Start
			})
			s.Drain(2 * time.Second)
		}
	}
	goAll(env.v, actors[:]...)
	for site, err := range errs {
		if err != nil {
			t.Fatalf("site %d did not survive the partition: %v", site, err)
		}
	}
	if machines[0].hash != machines[1].hash {
		t.Fatal("replicas diverged across the partition")
	}
	// Both sites must have frozen for roughly the partition length.
	for site, gap := range maxGap {
		if gap < 1500*time.Millisecond {
			t.Errorf("site %d max frame gap %v; expected a ~2s freeze", site, gap)
		}
		if gap > 3*time.Second {
			t.Errorf("site %d max frame gap %v; recovery took too long", site, gap)
		}
	}
	// Total time stays ~10s: Algorithm 3 carries the freeze as a negative
	// AdjustTimeDelta and fast-forwards the frames after healing until
	// the schedule is caught up ("the subsequent frames must compensate
	// for the delay", §3.2).
	if el := env.v.Elapsed(); el < 9500*time.Millisecond || el > 13*time.Second {
		t.Errorf("run took %v, want ~10s (freeze compensated by catch-up)", el)
	}
}

// TestPeerDeathSurfacesTimeout: when the remote site dies, SyncInput blocks;
// with WaitTimeout configured the caller gets ErrWaitTimeout instead of a
// silent hang.
func TestPeerDeathSurfacesTimeout(t *testing.T) {
	env := newTwoSiteEnv(t, 30*time.Millisecond, 0)
	errs := [2]error{}
	var actors [2]func()
	for site := 0; site < 2; site++ {
		site := site
		m := &fakeMachine{}
		s, err := NewSession(Config{SiteNo: site, WaitTimeout: 3 * time.Second}, env.v, epoch,
			m, []Peer{{Site: 1 - site, Conn: env.conns[site]}})
		if err != nil {
			t.Fatal(err)
		}
		frames := 600
		if site == 1 {
			frames = 100 // site 1 dies early, without draining
		}
		actors[site] = func() {
			errs[site] = s.RunFrames(frames, func(int) uint16 { return 0 }, nil)
			if site == 1 {
				_ = env.conns[1].Close()
			}
		}
	}
	goAll(env.v, actors[:]...)
	if errs[1] != nil {
		t.Fatalf("site 1 failed before dying: %v", errs[1])
	}
	if !errors.Is(errs[0], ErrWaitTimeout) {
		t.Fatalf("site 0 error = %v, want ErrWaitTimeout after peer death", errs[0])
	}
}

// TestAsymmetricPartition: only one direction drops. The protocol must
// stall (acks cannot flow) but recover once the direction heals.
func TestAsymmetricPartition(t *testing.T) {
	env := newTwoSiteEnv(t, 30*time.Millisecond, 0)
	env.v.ScheduleAfter(time.Second, func() {
		env.net.SetLink("site0", "site1", blackhole{})
	})
	env.v.ScheduleAfter(2500*time.Millisecond, func() {
		fwd := netem.Config{Delay: 15 * time.Millisecond, Seed: 555}
		env.net.SetLink("site0", "site1", netem.New(fwd))
	})
	_, machines := runPair(t, env, 400, Config{SiteNo: 0, WaitTimeout: 30 * time.Second},
		Config{SiteNo: 1, WaitTimeout: 30 * time.Second},
		func(site, frame int) uint16 { return uint16(frame) & 0xFF << (8 * site) })
	if machines[0].hash != machines[1].hash {
		t.Fatal("replicas diverged across the asymmetric partition")
	}
}

// TestMalformedTrafficIsIgnored floods a site with garbage datagrams; the
// protocol must count and skip them without crashing or diverging.
func TestMalformedTrafficIsIgnored(t *testing.T) {
	env := newTwoSiteEnv(t, 30*time.Millisecond, 0)
	garbage := env.net.MustBind("attacker")
	env.v.ScheduleAfter(500*time.Millisecond, func() {
		// A burst of junk "from" the attacker; SimConn filters by
		// source, so aim at the raw endpoint addresses via spoofed
		// payloads on the legit path instead: send nonsense through a
		// fresh netem-free link is filtered; instead corrupt-looking
		// payloads must come from the peer. Simulate by sending junk
		// from the attacker (dropped by the filter) and verifying the
		// run is unaffected.
		for i := 0; i < 50; i++ {
			_ = garbage.SendTo("site0", []byte{0xFF, 0xEE, 0xDD})
		}
	})
	_, machines := runPair(t, env, 300, Config{SiteNo: 0, WaitTimeout: 10 * time.Second},
		Config{SiteNo: 1, WaitTimeout: 10 * time.Second},
		func(site, frame int) uint16 { return uint16(frame) & 0xFF << (8 * site) })
	if machines[0].hash != machines[1].hash {
		t.Fatal("garbage traffic caused divergence")
	}
}

// TestDecodersNeverPanic feeds random bytes into every wire decoder.
func TestDecodersNeverPanic(t *testing.T) {
	f := func(raw []byte) bool {
		_, _ = decodeSync(raw)
		_, _ = decodeSnapChunk(raw)
		_, _, _, _ = decodeHash(raw)
		_, _ = ParseJoin(raw)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	// Adversarial shapes: correct type byte, wrong lengths/contents.
	for _, raw := range [][]byte{
		{msgSync}, {msgSync, 0}, append(encodeSync(nil, syncMsg{From: 0, To: 3, Inputs: make([]uint16, 4)}), 0xFF),
		{msgSnapChunk, 0, 0}, {msgHash}, {msgHash, 1, 2, 3},
		encodeSync(nil, syncMsg{From: 100, To: 50}),
	} {
		_, _ = decodeSync(raw)
		_, _ = decodeSnapChunk(raw)
		_, _, _, _ = decodeHash(raw)
	}
}

// TestHandleMalformedCountsStats drives InputSync.handle directly with junk.
func TestHandleMalformedCountsStats(t *testing.T) {
	env := newTwoSiteEnv(t, 10*time.Millisecond, 0)
	s, err := NewInputSync(Config{SiteNo: 0}, env.v, epoch,
		[]Peer{{Site: 1, Conn: env.conns[0]}})
	if err != nil {
		t.Fatal(err)
	}
	p := s.peers[1]
	for _, raw := range [][]byte{nil, {}, {0xAB}, {msgSync, 1, 2}, {msgHash, 9}} {
		s.handle(p, raw)
	}
	if got := s.Stats().MalformedRcvd; got < 4 {
		t.Errorf("MalformedRcvd = %d, want >= 4", got)
	}
}

// TestHugeFrameRangeRejected guards against a hostile peer declaring an
// enormous input range that would balloon the buffer.
func TestHugeFrameRangeRejected(t *testing.T) {
	env := newTwoSiteEnv(t, 10*time.Millisecond, 0)
	s, err := NewInputSync(Config{SiteNo: 0}, env.v, epoch,
		[]Peer{{Site: 1, Conn: env.conns[0]}})
	if err != nil {
		t.Fatal(err)
	}
	// A message claiming inputs for frames up to 2^30 must not allocate
	// gigabytes. decodeSync rejects payload/length mismatches, so a
	// hostile range requires a matching payload — bounded by the
	// datagram size; the worst case is maxInputsPerMsg entries with a
	// huge From offset.
	m := syncMsg{
		Sender: 1,
		From:   1 << 30,
		To:     1<<30 + 3,
		Inputs: []uint16{1, 2, 3, 4},
	}
	s.handle(s.peers[1], encodeSync(nil, m))
	if got := len(s.ibuf.buf); got > 1<<12 {
		t.Fatalf("hostile range grew the buffer to %d entries", got)
	}
	if got := s.Stats().BufPeak; got > 1<<12 {
		t.Fatalf("hostile range pushed the window peak to %d frames", got)
	}
}

var _ simnet.Shaper = blackhole{}
var _ transport.Conn = (*transport.SimConn)(nil)

// TestHandshakeSurvivesLoss: the session-control protocol retransmits READY
// and GO, so heavy loss only delays the start.
func TestHandshakeSurvivesLoss(t *testing.T) {
	env := newTwoSiteEnv(t, 40*time.Millisecond, 0.30)
	_, machines := runPair(t, env, 120, Config{SiteNo: 0, WaitTimeout: 30 * time.Second},
		Config{SiteNo: 1, WaitTimeout: 30 * time.Second},
		func(site, frame int) uint16 { return uint16(frame) & 0xFF << (8 * site) })
	if machines[0].hash != machines[1].hash {
		t.Fatal("diverged after lossy handshake")
	}
}

// TestHandshakeTimesOutWithoutPeer: a missing peer surfaces as an error, not
// a hang.
func TestHandshakeTimesOutWithoutPeer(t *testing.T) {
	env := newTwoSiteEnv(t, 20*time.Millisecond, 0)
	for site := 0; site < 2; site++ {
		s, err := NewSession(Config{SiteNo: site}, env.v, epoch, &fakeMachine{},
			[]Peer{{Site: 1 - site, Conn: env.conns[site]}})
		if err != nil {
			t.Fatal(err)
		}
		site := site
		done := env.v.Go(func() {
			if err := s.Handshake(time.Second); err == nil {
				t.Errorf("site %d handshake with absent peer succeeded", site)
			}
		})
		<-done
	}
}
