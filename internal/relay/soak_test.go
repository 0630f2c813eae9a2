package relay

import (
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"retrolock/internal/capture"
	"retrolock/internal/netem"
	"retrolock/internal/obs"
	"retrolock/internal/obs/history"
	"retrolock/internal/simnet"
	"retrolock/internal/vclock"
)

// The soak drives thousands of concurrent sessions through one daemon's
// real shard code under the virtual clock, with chaos phases (burst loss,
// partition, heal) on half the client population. `go test` runs a
// CI-sized default; `make relay-soak` raises -relay.sessions to 10000.
var (
	soakSessions = flag.Int("relay.sessions", 1024, "concurrent sessions in the relay soak")
	soakDrivers  = flag.Int("relay.drivers", 16, "driver actors multiplexing the soak sessions")
	soakShards   = flag.Int("relay.shards", 16, "relay shards in the soak")
	soakFronts   = flag.Int("relay.fronts", 4, "relay fronts in the soak")
	soakTick     = flag.Duration("relay.tick", 50*time.Millisecond, "virtual send cadence per site")
	soakSeed     = flag.Int64("relay.seed", 1, "soak PRNG seed (phases derive sub-seeds)")
)

// soakEpoch anchors the soak's virtual clock (same convention as chaos).
var soakEpoch = time.Date(2009, 6, 22, 0, 0, 0, 0, time.UTC)

// soakSession is one hosted pair owned by a driver. Counters are atomics:
// drivers increment them, the phase controller snapshots them.
type soakSession struct {
	token  Token
	driver int
	sent   [2]atomic.Int64 // per site
	recv   [2]atomic.Int64 // datagrams delivered TO site (0/1)
}

func TestRelaySoak10kSessionsUnderChaos(t *testing.T) {
	nSessions := *soakSessions
	nDrivers := *soakDrivers
	if nDrivers > nSessions {
		nDrivers = nSessions
	}
	v := vclock.NewVirtual(soakEpoch)
	net := simnet.New(v)

	// Relay fronts: simnet endpoints with queues deep enough to absorb a
	// whole synchronized send burst (every session ticks at the same
	// virtual cadence, staggered per driver).
	fronts := make([]Front, *soakFronts)
	frontAddrs := make([]string, *soakFronts)
	for i := range fronts {
		ep := net.MustBind(fmt.Sprintf("relay-%d", i))
		ep.SetQueueCap(1 << 16)
		fronts[i] = NewSimFront(ep)
		frontAddrs[i] = ep.Addr()
	}
	d, err := NewDaemon(Config{
		Shards:      *soakShards,
		MaxSessions: (nSessions / *soakShards) + *soakShards,
		QueueLen:    1 << 14,
		WriteBatch:  256,
		SessionTTL:  time.Hour, // the soak asserts zero expiry churn
		Clock:       v,
		Seed:        *soakSeed,
		// Fleet observability on, sized like relayd's -autocapture default.
		Stats:              true,
		AutoCaptureRecords: 32,
		AutoCaptureBytes:   4096,
	}, fronts)
	if err != nil {
		t.Fatal(err)
	}

	// Fleet aggregator: grades every session's inter-arrival cadence against
	// the drivers' send tick. Flip-driven capture is off — the burn-rate
	// alert below owns the capture decision — and CaptureLimit 1 makes the
	// capture guards themselves an assertion target: the chaos phase burns
	// hundreds of sessions at once, and exactly one .rkcp bundle may come out.
	gradeWindow := 10 * *soakTick
	var (
		capMu   sync.Mutex
		bundles []AnomalyCapture
	)
	fl, err := NewFleet(d, FleetConfig{
		Window: gradeWindow,
		TopK:   8,
		Health: obs.HealthConfig{
			// One datagram per site per tick is the healthy cadence; burst
			// loss stretches the mean gap to tick/(1-loss) ≈ 1.4x, so the
			// degraded margin sits at 1.2x. The infeasible margin is wide
			// (5x) so the first post-partition window — whose mean includes
			// one partition-length gap per site — grades degraded, not
			// infeasible, and recovery hysteresis is exercised from there.
			FrameTarget:           *soakTick,
			FrameDegradedMargin:   *soakTick / 5,
			FrameInfeasibleMargin: 4 * *soakTick,
		},
		CaptureLimit:       1,
		CaptureEvery:       time.Hour,
		disableFlipCapture: true,
		OnCapture: func(ac AnomalyCapture) {
			capMu.Lock()
			bundles = append(bundles, ac)
			capMu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// History + burn-rate alerting over the fleet's verdict gauges: the
	// alert burns when the unhealthy fraction of the fleet exceeds 4x a 5%
	// budget over both a fast (2-window) and slow (4-window) span. Firing
	// triggers the single alert-driven capture; a second CaptureBurning call
	// in the same handler asserts the lifetime limit holds while hundreds of
	// sessions are still burning.
	reg := obs.NewRegistry()
	fl.Register(reg)
	var (
		alertMu       sync.Mutex
		alertEvents   []history.Event
		extraCaptures atomic.Int64
	)
	var svc *history.Service
	svc = history.Wire(reg, history.Options{
		Store: history.Config{Resolutions: []history.Resolution{
			{Step: gradeWindow, Slots: 120},
			{Step: 5 * gradeWindow, Slots: 120},
		}},
		Rules: []history.Rule{{
			Name:   "fleet-session-health",
			Source: history.SourceGauge,
			Bad: []string{
				obs.Key(MetricSessionVerdicts, obs.Labels{"state": "degraded"}),
				obs.Key(MetricSessionVerdicts, obs.Labels{"state": "infeasible"}),
			},
			Total:      []string{MetricSessionTracked},
			Budget:     0.05,
			FastWindow: 2 * gradeWindow,
			SlowWindow: 4 * gradeWindow,
			Threshold:  4,
			ClearAfter: 2,
		}},
		OnTransition: func(ev history.Event) {
			alertMu.Lock()
			alertEvents = append(alertEvents, ev)
			alertMu.Unlock()
			if !ev.Firing {
				return
			}
			at := time.Unix(0, ev.AtNs)
			snap := fl.Snapshot()
			svc.Log.Annotate(ev.Name, at, "fleet: %d tracked, %d degraded, %d infeasible, %d flips",
				snap.Summary.Tracked, snap.Summary.Degraded, snap.Summary.Infeasible, snap.Summary.Flips)
			if tok, ok := fl.CaptureBurning(at); ok {
				svc.Log.AttachCapture(ev.Name, history.CaptureRef{
					Session: tok.String(), Path: "(in-memory)", AtNs: ev.AtNs,
				})
			}
			if _, ok := fl.CaptureBurning(at); ok {
				extraCaptures.Add(1)
			}
		},
	})

	// Admission: place every session up front (the lobby admission flow has
	// its own tests; the soak targets the packet path at scale).
	sessions := make([]*soakSession, nSessions)
	byToken := make(map[Token]int, nSessions)
	for i := range sessions {
		p, err := d.Place()
		if err != nil {
			t.Fatalf("Place %d: %v", i, err)
		}
		sessions[i] = &soakSession{token: p.Token, driver: i % nDrivers}
		byToken[p.Token] = i
	}
	if got := d.Sessions(); got != nSessions {
		t.Fatalf("placed %d sessions, daemon accounts %d", nSessions, got)
	}

	// Drivers: driver j speaks for site 0 of its sessions from endpoint
	// drvA-j and site 1 from drvB-j, so every forwarded datagram crosses
	// emulated links both ways. The first half of the drivers is the chaos
	// group; the second half keeps clean links throughout.
	type driver struct {
		idx      int
		epA, epB *simnet.Endpoint
		own      []*soakSession
	}
	drivers := make([]*driver, nDrivers)
	for j := range drivers {
		epA := net.MustBind(fmt.Sprintf("drvA-%d", j))
		epB := net.MustBind(fmt.Sprintf("drvB-%d", j))
		epA.SetQueueCap(1 << 14)
		epB.SetQueueCap(1 << 14)
		drivers[j] = &driver{idx: j, epA: epA, epB: epB}
	}
	for _, s := range sessions {
		dr := drivers[s.driver]
		dr.own = append(dr.own, s)
	}
	chaosDrivers := nDrivers / 2 // drivers [0, chaosDrivers) get faults

	var (
		stop          atomic.Bool
		leakErrs      atomic.Int64 // token not owned by the receiving driver
		integrityErrs atomic.Int64 // payload does not match its prefix
		miswiredErrs  atomic.Int64 // site-0 traffic on a site-0 endpoint etc.
	)
	frontOf := func(s *soakSession) string {
		return frontAddrs[s.token.ShardIndex()%len(frontAddrs)]
	}

	runDriver := func(dr *driver) {
		// Stagger drivers across the tick so the send burst is spread.
		v.Sleep(time.Duration(dr.idx+1) * *soakTick / time.Duration(nDrivers+1))
		buf := make([]byte, HeaderLen+13)
		seq := uint32(0)
		own := make(map[Token]*soakSession, len(dr.own))
		for _, s := range dr.own {
			own[s.token] = s
		}
		drain := func(ep *simnet.Endpoint, site int) {
			for {
				g, ok := ep.TryRecv()
				if !ok {
					return
				}
				tok, fromSite, pl, ok := ParseHeader(g.Payload)
				if !ok {
					integrityErrs.Add(1)
					continue
				}
				s, mine := own[tok]
				if !mine {
					leakErrs.Add(1)
					continue
				}
				if fromSite != 1-site {
					miswiredErrs.Add(1)
					continue
				}
				if len(pl) != 13 || Token(binary.BigEndian.Uint64(pl)) != tok || int(pl[12]) != fromSite {
					integrityErrs.Add(1)
					continue
				}
				s.recv[site].Add(1)
			}
		}
		for !stop.Load() {
			seq++
			for _, s := range dr.own {
				for site := 0; site < 2; site++ {
					n := PutHeader(buf, s.token, site)
					binary.BigEndian.PutUint64(buf[n:], uint64(s.token))
					binary.BigEndian.PutUint32(buf[n+8:], seq)
					buf[n+12] = byte(site)
					ep := dr.epA
					if site == 1 {
						ep = dr.epB
					}
					// Lost sends (partitions) are fine; a closed network is not
					// expected while the soak runs.
					_ = ep.SendTo(frontOf(s), buf[:n+13])
					s.sent[site].Add(1)
				}
			}
			drain(dr.epA, 0)
			drain(dr.epB, 1)
			v.Sleep(*soakTick)
		}
	}

	// Phase controller: reshapes the chaos group's links on a schedule and
	// snapshots per-session delivery counts around the windows it asserts.
	type snapshot []int64
	takeSnap := func() snapshot {
		sn := make(snapshot, nSessions)
		for i, s := range sessions {
			sn[i] = s.recv[0].Load() + s.recv[1].Load()
		}
		return sn
	}
	setChaosLinks := func(shape func(j int) simnet.Shaper) {
		for j := 0; j < chaosDrivers; j++ {
			sh := shape(j)
			for _, fa := range frontAddrs {
				for _, drv := range []string{fmt.Sprintf("drvA-%d", j), fmt.Sprintf("drvB-%d", j)} {
					net.SetLink(drv, fa, sh)
					net.SetLink(fa, drv, sh)
				}
			}
		}
	}
	// verdictCensus reads every session's fleet verdict, split into the
	// chaos and clean driver groups (untracked sessions count as a third
	// bucket — after the first grading tick there should be none).
	type census struct {
		chaosUnhealthy, cleanUnhealthy, untracked int
	}
	takeCensus := func() census {
		var c census
		for _, s := range sessions {
			detail, ok := fl.Detail(s.token)
			unhealthy := detail.Verdict != obs.Healthy.String()
			switch {
			case !ok:
				c.untracked++
			case unhealthy && s.driver < chaosDrivers:
				c.chaosUnhealthy++
			case unhealthy:
				c.cleanUnhealthy++
			}
		}
		return c
	}
	var warmupSnap, healStart, healEnd snapshot
	var partEndCensus, healEndCensus census
	var (
		flushed, fleetTracked, tableSessions int
		fleetSnap                            *FleetSnapshot
		elapsed                              time.Duration
	)
	// The heal phase is 10 grading windows long: the first window after the
	// partition grades degraded (its mean gap includes one partition-length
	// hole per site), recovery needs RecoverAfter=3 strictly-better windows
	// after that, and then the alert's slow window (4 grading windows) must
	// drain below the clearing bound for ClearAfter consecutive evaluations
	// before the burn-rate alert resolves — plus phase-alignment slack.
	phases := []struct {
		name string
		dur  time.Duration
	}{
		{"warmup", time.Second},
		{"burst-loss", time.Second},
		{"partition", time.Second},
		{"heal", 5 * time.Second},
	}
	// Everything below starts from one root actor, in this order: nothing
	// runs (and the clock stands still) until every actor is registered.
	var controller, samplerDone <-chan struct{}
	dones := make([]<-chan struct{}, 0, nDrivers)
	<-v.Go(func() {
		controller = v.Go(func() {
			for _, ph := range phases {
				switch ph.name {
				case "warmup", "heal":
					setChaosLinks(func(int) simnet.Shaper { return nil }) // clean
				case "burst-loss":
					setChaosLinks(func(j int) simnet.Shaper {
						return netem.New(netem.Config{
							Delay: 5 * time.Millisecond, Jitter: 2 * time.Millisecond,
							Loss: 0.3, BurstLoss: true, Seed: *soakSeed + int64(j),
						})
					})
				case "partition":
					setChaosLinks(func(j int) simnet.Shaper {
						return netem.New(netem.Config{Loss: 1, Seed: *soakSeed + int64(j)})
					})
				}
				switch ph.name {
				case "heal":
					healStart = takeSnap()
					partEndCensus = takeCensus()
				}
				v.Sleep(ph.dur)
				switch ph.name {
				case "warmup":
					warmupSnap = takeSnap()
				case "heal":
					healEnd = takeSnap()
					healEndCensus = takeCensus()
				}
			}
			stop.Store(true)
			// Read the end state here, at a fixed virtual instant between
			// two fleet ticks (the sampler's phase) after the drivers and
			// the sampler have exited, then stop the relay and fleet loops
			// from inside the world. The capture limit was already hit, so
			// FlushPending must emit nothing.
			v.Sleep(gradeWindow + gradeWindow/2)
			flushed = fl.FlushPending(v.Now())
			fleetSnap = fl.Snapshot()
			fleetTracked = fleetSnap.Summary.Tracked
			for _, sh := range d.Shards() {
				tableSessions += len(sh.sessionTable())
			}
			elapsed = v.Elapsed()
			_ = d.Close()
		})

		dones = append(dones, d.StartVirtual(v), fl.StartVirtual(v))
		// History sampler: one base tick per grading window, phase-offset half a
		// window behind the fleet tick so every sample reads a freshly published
		// verdict census (never racing the same virtual instant).
		samplerDone = v.Go(func() {
			v.Sleep(gradeWindow + gradeWindow/2)
			for !stop.Load() {
				svc.Sample(v.Now())
				v.Sleep(gradeWindow)
			}
		})
		for _, dr := range drivers {
			dr := dr
			dones = append(dones, v.Go(func() { runDriver(dr) }))
		}
	})
	<-controller
	for _, done := range dones {
		<-done
	}
	<-samplerDone

	// --- Invariant suite -------------------------------------------------

	// 1. Session isolation: no driver ever received a token it does not
	// own, every payload matched its prefix, and traffic arrived on the
	// correct side's endpoint.
	if n := leakErrs.Load(); n != 0 {
		t.Errorf("cross-session leakage: %d datagrams at foreign drivers", n)
	}
	if n := integrityErrs.Load(); n != 0 {
		t.Errorf("payload integrity: %d corrupted/mismatched datagrams", n)
	}
	if n := miswiredErrs.Load(); n != 0 {
		t.Errorf("miswired delivery: %d datagrams on the wrong site endpoint", n)
	}

	// 2. Liveness. Warmup (all links clean): every session made progress.
	// Heal (links restored): every session — including the partitioned
	// half — resumed and progressed through the whole window.
	stuckWarm, stuckHeal := 0, 0
	for i := range sessions {
		if warmupSnap[i] == 0 {
			stuckWarm++
		}
		if healEnd[i]-healStart[i] <= 0 {
			stuckHeal++
		}
	}
	if stuckWarm > 0 {
		t.Errorf("liveness: %d/%d sessions silent through the clean warmup", stuckWarm, nSessions)
	}
	if stuckHeal > 0 {
		t.Errorf("liveness: %d/%d sessions did not resume after the partition healed", stuckHeal, nSessions)
	}

	// 3. Bounded memory and counter consistency per shard.
	var totalIn, totalFwd, totalDropQ int64
	for i, sh := range d.Shards() {
		in := sh.datagramsIn.Value()
		fwd := sh.forwarded.Value()
		parked := sh.queuedPending.Value()
		rejects := sh.rejRunt.Value() + sh.rejSite.Value() + sh.rejToken.Value() + sh.rejSpoof.Value()
		totalIn += in
		totalFwd += fwd
		totalDropQ += sh.QueueDropped()
		if rejects != 0 {
			t.Errorf("shard %d: %d rejected datagrams in an all-valid soak (runt=%d site=%d token=%d spoof=%d)",
				i, rejects, sh.rejRunt.Value(), sh.rejSite.Value(), sh.rejToken.Value(), sh.rejSpoof.Value())
		}
		if peak := sh.QueuePeak(); peak > int64(d.cfg.QueueLen) {
			t.Errorf("shard %d: inbound queue peak %d exceeded bound %d", i, peak, d.cfg.QueueLen)
		}
		// Every ingested datagram was rejected, parked, or forwarded
		// directly; pending drains add forwards beyond that, but never more
		// than were parked.
		direct := in - rejects - parked
		if drained := fwd - direct; drained < 0 || drained > parked {
			t.Errorf("shard %d: counters inconsistent: in=%d fwd=%d parked=%d rejects=%d", i, in, fwd, parked, rejects)
		}
		if sh.sessionsTotal.Value() != int64(sh.Active()) ||
			sh.sessionsExpired.Value() != 0 || sh.sessionsClosed.Value() != 0 {
			t.Errorf("shard %d: session churn in a churn-free soak: total=%d active=%d expired=%d closed=%d",
				i, sh.sessionsTotal.Value(), sh.Active(), sh.sessionsExpired.Value(), sh.sessionsClosed.Value())
		}
	}
	if got := d.Sessions(); got != nSessions {
		t.Errorf("daemon sessions = %d after soak, want %d", got, nSessions)
	}

	// 4. Fleet grading. The chaos group must be graded unhealthy by the end
	// of the partition and recovered by the end of the heal; the clean group
	// must never grade unhealthy. Small slack absorbs virtual same-instant
	// scheduling wobble at phase boundaries.
	chaosSessions := 0
	for _, s := range sessions {
		if s.driver < chaosDrivers {
			chaosSessions++
		}
	}
	if partEndCensus.untracked != 0 || healEndCensus.untracked != 0 {
		t.Errorf("fleet: %d/%d sessions untracked at partition/heal end",
			partEndCensus.untracked, healEndCensus.untracked)
	}
	if min := chaosSessions * 9 / 10; partEndCensus.chaosUnhealthy < min {
		t.Errorf("fleet: only %d/%d chaos sessions graded unhealthy at partition end, want >= %d",
			partEndCensus.chaosUnhealthy, chaosSessions, min)
	}
	if max := chaosSessions / 100; healEndCensus.chaosUnhealthy > max {
		t.Errorf("fleet: %d/%d chaos sessions still unhealthy at heal end, want <= %d",
			healEndCensus.chaosUnhealthy, chaosSessions, max)
	}
	if partEndCensus.cleanUnhealthy != 0 || healEndCensus.cleanUnhealthy != 0 {
		t.Errorf("fleet: clean-link sessions graded unhealthy: %d at partition end, %d at heal end",
			partEndCensus.cleanUnhealthy, healEndCensus.cleanUnhealthy)
	}

	// 5. Fleet accounting: no leaked or lost grading state in a churn-free
	// soak, and the shard tables cover exactly the hosted population.
	if fleetTracked != nSessions {
		t.Errorf("fleet tracks %d sessions after soak, want %d", fleetTracked, nSessions)
	}
	if fleetSnap.Summary.Tracked != nSessions {
		t.Errorf("fleet snapshot tracked %d sessions, want %d", fleetSnap.Summary.Tracked, nSessions)
	}
	if tableSessions != nSessions {
		t.Errorf("shard stat tables cover %d sessions, want %d", tableSessions, nSessions)
	}
	if fleetSnap.Summary.Flips < int64(chaosSessions*9/10) {
		t.Errorf("fleet counted %d flips, want >= %d (one per degraded chaos session)",
			fleetSnap.Summary.Flips, chaosSessions*9/10)
	}

	// 6. Anomaly capture: with CaptureLimit 1, the chaos storm produces
	// exactly one bundle; every other flip is a counted suppression, and the
	// shutdown flush has nothing left to emit. The bundle must survive an
	// encode/decode round trip and every record must demux back to the
	// captured session's token.
	capMu.Lock()
	gotBundles := append([]AnomalyCapture(nil), bundles...)
	capMu.Unlock()
	if flushed != 0 {
		t.Errorf("FlushPending emitted %d bundles past the capture limit", flushed)
	}
	if len(gotBundles) != 1 {
		t.Fatalf("chaos soak emitted %d anomaly bundles, want exactly 1 (CaptureLimit)", len(gotBundles))
	}
	if fleetSnap.Summary.Captures != 1 || fleetSnap.Summary.Suppressed < 1 {
		t.Errorf("fleet counters: captures=%d suppressed=%d, want 1 and >= 1",
			fleetSnap.Summary.Captures, fleetSnap.Summary.Suppressed)
	}
	bundle := gotBundles[0]
	if bundle.State < obs.Degraded {
		t.Errorf("anomaly bundle verdict = %v, want degraded or worse", bundle.State)
	}
	if i, ok := byToken[bundle.Token]; !ok || sessions[i].driver >= chaosDrivers {
		t.Errorf("anomaly bundle captured session %s, which is not in the chaos group", bundle.Token)
	}
	encoded := bundle.Capture.Encode()
	decoded, err := capture.Decode(encoded)
	if err != nil {
		t.Fatalf("anomaly bundle does not decode: %v", err)
	}
	if decoded.Meta.Session != bundle.Token.String() {
		t.Errorf("bundle meta session = %q, want %q", decoded.Meta.Session, bundle.Token)
	}
	if decoded.Meta.Verdict != bundle.State.String() {
		t.Errorf("bundle meta verdict = %q, want %q", decoded.Meta.Verdict, bundle.State)
	}
	if len(decoded.Records) == 0 {
		t.Error("anomaly bundle holds no traffic")
	}
	for i, rec := range decoded.Records {
		tok, _, _, ok := ParseHeader(rec.Payload)
		if !ok || tok != bundle.Token {
			t.Fatalf("bundle record %d does not demux to the captured session: token=%v ok=%v", i, tok, ok)
		}
	}
	// CI keeps the bundle as an artifact when the soak fails.
	if dir := os.Getenv("RETROLOCK_RELAY_CAPTURE_DIR"); dir != "" {
		path := filepath.Join(dir, fmt.Sprintf("anomaly-%s-%s.rkcp", bundle.Token, bundle.State))
		if err := os.WriteFile(path, encoded, 0o644); err != nil {
			t.Errorf("writing anomaly bundle artifact: %v", err)
		} else {
			t.Logf("anomaly bundle written to %s (%d records, %d bytes)", path, len(decoded.Records), len(encoded))
		}
	}
	t.Logf("fleet: window=%v graded=%d flips=%d captures=%d suppressed=%d chaos-unhealthy(part-end)=%d/%d",
		gradeWindow, fleetSnap.Summary.Graded, fleetSnap.Summary.Flips, fleetSnap.Summary.Captures,
		fleetSnap.Summary.Suppressed, partEndCensus.chaosUnhealthy, chaosSessions)

	// 7. Burn-rate alerting and the incident timeline. The chaos storm must
	// fire the fleet-health alert exactly once, inside the chaos phases (the
	// fast window sees burst-loss damage, so firing lands in burst-loss or
	// partition), and the alert must clear before the heal phase ends. The
	// firing transition drives the one capture; the incident log correlates
	// the alert with the fleet census note and the captured session.
	alertMu.Lock()
	gotEvents := append([]history.Event(nil), alertEvents...)
	alertMu.Unlock()
	if len(gotEvents) != 2 || !gotEvents[0].Firing || gotEvents[1].Firing {
		t.Fatalf("alert transitions = %+v, want exactly [fire, clear]", gotEvents)
	}
	var bound time.Duration
	for _, ph := range phases[:1] { // warmup end
		bound += ph.dur
	}
	chaosStartNs := soakEpoch.Add(bound).UnixNano()
	chaosEndNs := soakEpoch.Add(bound + phases[1].dur + phases[2].dur).UnixNano()
	healEndNs := soakEpoch.Add(bound + phases[1].dur + phases[2].dur + phases[3].dur).UnixNano()
	if at := gotEvents[0].AtNs; at <= chaosStartNs || at > chaosEndNs {
		t.Errorf("alert fired at %v, want inside the chaos phases (%v, %v]",
			time.Duration(at-soakEpoch.UnixNano()), time.Duration(chaosStartNs-soakEpoch.UnixNano()),
			time.Duration(chaosEndNs-soakEpoch.UnixNano()))
	}
	if at := gotEvents[1].AtNs; at <= gotEvents[0].AtNs || at > healEndNs {
		t.Errorf("alert cleared at %v, want after firing and before heal end (%v)",
			time.Duration(at-soakEpoch.UnixNano()), time.Duration(healEndNs-soakEpoch.UnixNano()))
	}
	if n := extraCaptures.Load(); n != 0 {
		t.Errorf("CaptureBurning emitted %d bundles past the lifetime limit", n)
	}
	if n := svc.Engine.Firing(); n != 0 {
		t.Errorf("%d alerts still firing after the heal", n)
	}
	incidents, dropped := svc.Log.Snapshot()
	if dropped != 0 || len(incidents) != 1 {
		t.Fatalf("incident log holds %d incidents (%d dropped), want exactly 1", len(incidents), dropped)
	}
	inc := incidents[0]
	if inc.Alert != "fleet-session-health" || !inc.Resolved() {
		t.Errorf("incident = %+v, want a resolved fleet-session-health incident", inc)
	}
	if len(inc.Notes) == 0 {
		t.Error("incident carries no fleet-context note")
	}
	if len(inc.Captures) != 1 {
		t.Fatalf("incident references %d captures, want 1", len(inc.Captures))
	}
	if inc.Captures[0].Session != gotBundles[0].Token.String() {
		t.Errorf("incident capture ref %s does not match the emitted bundle %s",
			inc.Captures[0].Session, gotBundles[0].Token)
	}
	// The alert series are themselves retained: the firing gauge's history
	// must show both the firing and the quiet state.
	firingKey := obs.Key(history.MetricAlertFiring, obs.Labels{"alert": "fleet-session-health"})
	pts, _, ok := svc.Store.QueryScalar(firingKey, 0, elapsed)
	if !ok {
		t.Fatalf("alert firing gauge %s not retained by the history store", firingKey)
	}
	var sawFiring, sawQuiet bool
	for _, p := range pts {
		if p.Value >= 1 {
			sawFiring = true
		} else {
			sawQuiet = true
		}
	}
	if !sawFiring || !sawQuiet {
		t.Errorf("retained firing-gauge history never showed both states: firing=%v quiet=%v over %d points",
			sawFiring, sawQuiet, len(pts))
	}
	var timeline strings.Builder
	history.RenderTimeline(&timeline, incidents, dropped)
	t.Logf("incident timeline:\n%s", timeline.String())
	// CI keeps the timeline next to the anomaly bundle when the soak fails:
	// the .rkcp is the repro evidence, this is the narrative around it.
	if dir := os.Getenv("RETROLOCK_RELAY_CAPTURE_DIR"); dir != "" {
		path := filepath.Join(dir, "incidents.txt")
		if err := os.WriteFile(path, []byte(timeline.String()), 0o644); err != nil {
			t.Errorf("writing incident timeline artifact: %v", err)
		}
	}

	var sent int64
	for _, s := range sessions {
		sent += s.sent[0].Load() + s.sent[1].Load()
	}
	t.Logf("soak: %d sessions, %d drivers, %d shards: sent=%d relayed-in=%d forwarded=%d queue-drops=%d virtual=%v",
		nSessions, nDrivers, *soakShards, sent, totalIn, totalFwd, totalDropQ, elapsed)
	if totalFwd == 0 {
		t.Fatal("soak forwarded nothing")
	}
}
