package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"retrolock/internal/netem"
	"retrolock/internal/relay"
	"retrolock/internal/rom/games"
	"retrolock/internal/trafficgen"
	"retrolock/internal/vclock"
)

// A traced run is separate from the end-to-end run. It executes a slice of
// the workload twice — spans off, spans on — so the tracing overhead is a
// measured ratio, keeps every span in memory, writes them out at the end,
// and fills the per-layer ledger: in-situ self times and counts from the
// spans, unit costs from the layer probes, and a reconciliation row setting
// the end-to-end cost per op beside the sum of the layers.

// traceReport is the human-readable side of a traced run.
type traceReport struct {
	SpanFiles []string           `json:"span_files"`
	Spans     int                `json:"spans"`
	Rows      []spanRow          `json:"rows"`   // per span name
	Layers    map[string]float64 `json:"layers"` // self ns per op, by layer
	PerOp     string             `json:"per_op"` // what an op is in Rows and Layers
	Recon     [3]float64         `json:"recon"`  // e2e, layers, unattributed (ns per op)
	Overhead  float64            `json:"overhead_ratio"`
	Fidelity  string             `json:"fidelity,omitempty"`
}

type spanRow struct {
	Name   string  `json:"name"`
	Calls  int64   `json:"calls"`
	SelfNs float64 `json:"self_ns_per_call"`
	PerOp  float64 `json:"self_ns_per_op"`
}

func (t *traceReport) print(w io.Writer) {
	fmt.Fprintf(w, "   spans: %d recorded, written to %v\n", t.Spans, t.SpanFiles)
	if t.Fidelity != "" {
		fmt.Fprintln(w, "  ", t.Fidelity)
	}
	fmt.Fprintf(w, "   self time by span (per op = %s):\n", t.PerOp)
	fmt.Fprintf(w, "   %-28s %12s %16s %14s\n", "span", "calls", "self ns/call", "self ns/op")
	for _, r := range t.Rows {
		fmt.Fprintf(w, "   %-28s %12d %16.1f %14.1f\n", r.Name, r.Calls, r.SelfNs, r.PerOp)
	}
	fmt.Fprintf(w, "   self time by layer, ns per op:")
	for _, k := range sortedKeys(t.Layers) {
		fmt.Fprintf(w, "  %s %.0f", k, t.Layers[k])
	}
	fmt.Fprintf(w, "\n   reconciliation, ns per op: end-to-end %.0f = layers %.0f + unattributed %.0f (%.0f%%)\n",
		t.Recon[0], t.Recon[1], t.Recon[2], 100*t.Recon[2]/t.Recon[0])
	fmt.Fprintf(w, "   tracing overhead: traced / untraced cost per op = %.4f\n", t.Overhead)
}

// spanFilePath puts span dumps next to the benchmark binary, which the
// launcher builds inside the checkout.
func spanFilePath(name string) string {
	dir := "."
	if exe, err := os.Executable(); err == nil {
		dir = filepath.Dir(exe)
	}
	return filepath.Join(dir, "spans-"+name+".csv")
}

func rowsOf(agg map[spanName]spanAgg, ops float64) []spanRow {
	rows := make([]spanRow, 0, len(agg))
	for name, a := range agg {
		rows = append(rows, spanRow{Name: name.String(), Calls: a.Calls, SelfNs: a.selfPerCall(), PerOp: float64(a.Self) / ops})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].PerOp > rows[j].PerOp })
	return rows
}

// ledger accumulates a traced run.
type ledger struct {
	m         map[string]float64
	attempted int
	failed    int // ops that failed, wrong outputs included
	incorrect int // ops whose output was wrong
	failures  []string
	bufs      []*spanBuf
	epoch     time.Time
}

// fail records one op whose output was wrong.
func (l *ledger) fail(format string, args ...any) {
	l.failed++
	l.incorrect++
	l.failures = append(l.failures, fmt.Sprintf(format, args...))
}

// lockstepTrace is the in-situ part every traced run has: K sessions of the
// lockstep configuration run three ways (harness.Run, untraced replica,
// traced replica) plus the traced single-machine replay.
type lockstepTrace struct {
	frames                float64 // site-0 frames over the traced sessions
	refWall, unWall, wall time.Duration
	agg0                  map[spanName]spanAgg // site 0's actor only: the session's critical path
	aggAll                map[spanName]spanAgg // both sites
	aggReplay             map[spanName]spanAgg
	fidelity              string
}

func (l *ledger) traceLockstep(workload string, seed int64, sessions int) (*lockstepTrace, error) {
	out := &lockstepTrace{}
	nGames := len(games.Names())
	perSite := lockstepFrames * 64 // spans per site and session on the lossy wait path, generously
	site := [2]*spanBuf{newSpanBuf("site0", l.epoch, sessions*perSite), newSpanBuf("site1", l.epoch, sessions*perSite)}
	replay := newSpanBuf("replay", l.epoch, nGames*(3*lockstepFrames+8))
	outer := newSpanBuf("bench", l.epoch, 64)
	l.bufs = append(l.bufs, site[0], site[1], replay, outer)

	var counts lockstepCounts
	var refWaits, repWaits int64
	for i := 0; i < sessions; i++ {
		cfg := lockstepConfig(workload, seed, i)
		outer.setOp(i)
		id := outer.begin(spHarnessRun)
		chk, res, wall := runSession(cfg)
		outer.end(id)
		l.attempted++
		if msg := chk.verify(workload); msg != "" {
			l.fail("%s", msg)
			continue
		}
		counts.add(cfg, res)
		refWaits += int64(res.Sites[0].Stats.Waits)
		out.refWall += wall

		un, err := runReplica(cfg, [2]*spanBuf{}, i)
		if err != nil {
			return nil, err
		}
		tr, err := runReplica(cfg, site, i)
		if err != nil {
			return nil, err
		}
		l.attempted += 2
		for name, h := range map[string][2]uint64{"untraced replica": un.Hash, "traced replica": tr.Hash} {
			if h[0] != chk.hash[0] || h[1] != chk.hash[0] {
				l.fail("session seed %d: %s ended at %016x/%016x, harness.Run at %016x", cfg.Seed, name, h[0], h[1], chk.hash[0])
			}
		}
		out.unWall += un.Wall
		out.wall += tr.Wall
		out.frames += float64(tr.Frames)
		repWaits += int64(tr.Waits0)
	}
	if out.frames == 0 {
		return nil, fmt.Errorf("no traced lockstep session completed: %v", l.failures)
	}
	// The vm unit costs come from a spanned single-machine replay of the
	// merged input stream over the whole ROM mix, whatever the workload.
	for i := 0; i < nGames; i++ {
		cfg := lockstepConfig(workload, seed, i)
		got, err := tracedReplay(cfg, 6, replay, i)
		if err != nil {
			return nil, err
		}
		want, err := replayHash(cfg.Game, cfg.Seed, 6, cfg.Frames)
		if err != nil {
			return nil, err
		}
		l.attempted++
		if got != want {
			l.fail("session seed %d: spanned replay ended at %016x, plain replay at %016x", cfg.Seed, got, want)
		}
	}
	out.agg0 = aggregate(site[0])
	out.aggAll = aggregate(site[0], site[1])
	out.aggReplay = aggregate(replay)
	out.fidelity = fmt.Sprintf("replica vs harness.Run on the same %d seeds: wall %.1f vs %.1f us/frame, site-0 waits %d vs %d, final hashes equal",
		sessions, float64(out.unWall)/1e3/out.frames, float64(out.refWall)/1e3/out.frames, repWaits, refWaits)

	f := out.frames
	all := out.aggAll
	rp := out.aggReplay
	l.m["vm.step_ns_per_frame"] = rp[spStep].selfPerCall()
	l.m["vm.hash_ns_per_frame"] = rp[spHash].selfPerCall()
	l.m["vm.savedelta_ns_per_frame"] = rp[spSaveDelta].selfPerCall()
	l.m["core.sync_ns_per_frame"] = all[spRunFrame].selfPerCall()
	l.m["flight.ns_per_frame"] = all[spFlight].selfPerCall()
	l.m["transport.send_ns_per_msg"] = all[spSend].selfPerCall()
	l.m["transport.recv_ns_per_msg"] = all[spTryRecv].selfPerCall()
	l.m["transport.msgs_per_frame"] = float64(all[spSend].Calls) / f
	l.m["vclock.wakes_per_frame"] = float64(all[spSleep].Calls) / f
	cf := float64(counts.Frames)
	l.m["core.wire_bytes_per_frame"] = float64(counts.BytesSent) / cf
	l.m["core.fresh_input_ratio"] = ratio(counts.InputsFresh, counts.InputsFresh+counts.InputsDup)
	l.m["core.waits_per_kframe"] = 1000 * float64(counts.Waits0) / cf
	l.m["core.wait_virt_ms_per_frame"] = float64(counts.WaitNs0) / 1e6 / cf
	l.m["core.frame_virt_ms_mean"] = counts.SumFrameMs / float64(counts.Sessions)
	l.m["core.skew_virt_ms_absmean"] = counts.SumSkewMs / float64(counts.Sessions)
	l.m["transport.retx_ratio"] = ratio(counts.Retransmits, counts.Planned)
	l.m["netem.drop_ratio"] = ratio(counts.Dropped, counts.Planned)
	l.m["netem.dup_ratio"] = ratio(counts.Duplicated, counts.Planned)
	return out, nil
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// probeAll runs the layer probes under the given link and relay
// configurations.
func (l *ledger) probeAll(link netem.Config, relayCfg relay.Config) error {
	l.m["vclock.ns_per_wake_2"] = probeVclock(2)
	l.m["vclock.ns_per_wake_40"] = probeVclock(40)
	allocs, err := probeCoreAllocs()
	if err != nil {
		return err
	}
	l.m["core.allocs_per_frame"] = allocs
	l.m["netem.plan_ns_per_pkt"] = probeNetem(link)
	if l.m["simnet.ns_per_pkt"], err = probeSimnet(); err != nil {
		return err
	}
	rp, err := probeRelay(relayCfg)
	if err != nil {
		return err
	}
	l.m["relay.route_ns_per_dgram"] = rp.RouteNs
	l.m["relay.step_ns_per_dgram"] = rp.StepNs
	l.m["relay.allocs_per_dgram"] = rp.AllocsPerDgram
	l.m["relay.place_us_per_session"] = rp.PlaceUs
	fp, err := probeFront()
	if err != nil {
		return err
	}
	l.m["relay.front_recv_ns_per_dgram"] = fp.RecvNs
	l.m["relay.front_send_ns_per_dgram"] = fp.SendNs
	l.m["capture.record_ns_per_dgram"] = probeCapture()
	tp, err := probeTelemetry()
	if err != nil {
		return err
	}
	l.m["obs.fleet_tick_us"] = tp.FleetTickUs
	l.m["obs.history_sample_us"] = tp.HistorySampleUs
	l.m["obs.scrape_us"] = tp.ScrapeUs
	return nil
}

// fleetRelayConfig is the relay.Config trafficgen.Run builds for cfg.
func fleetRelayConfig(cfg trafficgen.RunConfig) relay.Config {
	return relay.Config{
		Shards: cfg.Shards, QueueLen: 1 << 14, WriteBatch: 256, SessionTTL: time.Hour,
		Clock: vclock.NewVirtual(trafficgen.Epoch), Seed: cfg.Model.Seed,
	}
}

// fleetLayers is the probed cost of everything under trafficgen that one
// delivered datagram pays: two simnet crossings each planned by netem, one
// Route and one Step, and its share of the run's actor wake-ups (16 drivers
// on a 2 ms tick; a reader and a shard loop per shard on a 200 us poll).
func (l *ledger) fleetLayers(cfg trafficgen.RunConfig, delivered int64) float64 {
	wakes := float64(cfg.Measure)/float64(2*time.Millisecond)*float64(cfg.Model.Drivers) +
		float64(cfg.Measure)/float64(200*time.Microsecond)*float64(2*cfg.Shards)
	return 2*(l.m["simnet.ns_per_pkt"]+l.m["netem.plan_ns_per_pkt"]) +
		l.m["relay.route_ns_per_dgram"] + l.m["relay.step_ns_per_dgram"] +
		wakes/float64(delivered)*l.m["vclock.ns_per_wake_40"]
}

// traceFleet runs cfg twice — once bare, once inside a span — and derives
// trafficgen's own share by subtraction. It returns the traced run's wall ns
// per delivered datagram (measured-window share), the probed layers under
// it, and the traced/untraced ratio.
func (l *ledger) traceFleet(cfg trafficgen.RunConfig) (e2e, layers, overhead float64, err error) {
	outer := newSpanBuf("bench.fleet", l.epoch, 8)
	l.bufs = append(l.bufs, outer)
	un, err := runFleetOnce(cfg)
	if err != nil {
		return 0, 0, 0, err
	}
	id := outer.begin(newFleetSpan)
	tr, err := runFleetOnce(cfg)
	outer.endN(id, int(tr.Recv))
	if err != nil {
		return 0, 0, 0, err
	}
	l.attempted += int(tr.Sent)
	// The spanned run is the bare run's repeat: same seed, same process.
	_, whys := fleetFailures(0, un, &tr)
	for _, why := range whys {
		l.fail("%s", why)
	}
	if tr.Recv == 0 {
		return 0, 0, 0, fmt.Errorf("traced fleet run delivered nothing")
	}
	// Warm-up (600 ms) and drain (400 ms) of virtual time carry traffic that
	// Recv does not count; charge the measured window its share of the wall.
	share := float64(cfg.Measure) / float64(cfg.Measure+time.Second)
	e2e = float64(tr.WallNs) * share / float64(tr.Recv)
	layers = l.fleetLayers(cfg, tr.Recv)
	l.m["trafficgen.self_ns_per_dgram"] = e2e - layers
	l.m["trafficgen.delivered_bp"] = 1e4 * float64(tr.Recv) / float64(tr.Sent)
	return e2e, layers, float64(tr.WallNs) / float64(un.WallNs), nil
}

var newFleetSpan = newSpanName("trafficgen.Run")

// traceUDP drives the workload's relay twice for half the window each, spans
// off then on, and folds the traced child's account into the ledger.
func (l *ledger) traceUDP(workload string, seed int64, seconds int) (e2e, overhead float64, spanFile string, spans int, rows []spanRow, err error) {
	spec := relaySpec{Telemetry: workload == "relay_udp_telemetry", Sessions: udpSessions}
	warmup, measure := udpTimes(seconds)
	warmup, measure = warmup/2, measure/2
	un, err := driveRelay(spec, seed, warmup, measure)
	if err != nil {
		return 0, 0, "", 0, nil, err
	}
	spec.Traced, spec.SpanFile = true, spanFilePath(workload+"-relay")
	tr, err := driveRelay(spec, seed, warmup, measure)
	if err != nil {
		return 0, 0, "", 0, nil, err
	}
	l.attempted += int(un.Sent + tr.Sent)
	l.failures = append(append(l.failures, un.Failures...), tr.Failures...)
	l.failed += int(un.Failed + tr.Failed)
	l.incorrect += int(un.Incorrect + tr.Incorrect)
	if un.Recv == 0 || tr.Recv == 0 {
		return 0, 0, "", 0, nil, fmt.Errorf("traced relay windows delivered %d and %d datagrams", un.Recv, tr.Recv)
	}
	f := tr.Final
	// The child's own spans. A Recv span is mostly the reader sitting
	// blocked, so only its count and batch size mean anything.
	per := func(ns, calls int64) float64 {
		if calls == 0 {
			return 0
		}
		return float64(ns) / float64(calls)
	}
	rows = []spanRow{
		{Name: spFrontSend.String(), Calls: f.SendCalls, SelfNs: per(f.SendNs, f.SendCalls), PerOp: per(f.SendNs, tr.Recv)},
		{Name: spFrontRecv.String() + " (count only)", Calls: f.RecvCalls},
		{Name: spFleetTick.String(), Calls: f.TickCalls, SelfNs: per(f.TickNs, f.TickCalls), PerOp: per(f.TickNs, tr.Recv)},
		{Name: spHistory.String(), Calls: f.SampleCall, SelfNs: per(f.SampleNs, f.SampleCall), PerOp: per(f.SampleNs, tr.Recv)},
	}
	l.m["relay.front_batch_fill"] = ratio(f.RecvDgrams, f.RecvCalls)
	l.m["relay.forwarded"] = float64(f.Forwarded)
	l.m["relay.parked"] = float64(f.Parked)
	l.m["relay.queue_dropped"] = float64(f.QueueDropped)
	l.m["relay.queue_peak"] = float64(f.QueuePeak)
	l.m["relay.spoof_rejected"] = float64(f.SpoofReject)
	e2e = float64(tr.CPUNs) / float64(tr.Recv)
	return e2e, e2e / (float64(un.CPUNs) / float64(un.Recv)), spec.SpanFile, f.Spans, rows, nil
}

// runTraced is the traced run of one workload.
func runTraced(name string, seed int64, seconds int) (*runResult, error) {
	if !knownWorkload(name) {
		return nil, fmt.Errorf("unknown workload %q (have %v)", name, workloadNames())
	}
	l := &ledger{m: map[string]float64{}, epoch: time.Now()}
	for _, m := range perLayer {
		l.m[m.Name] = 0 // off-path counts stay zero; every time-valued row is overwritten below
	}
	r := &runResult{Workload: name, Seed: seed, Seconds: seconds, Traced: true}
	rep := &traceReport{}
	r.Trace = rep

	// Which configuration each shared section runs under: the workload's own
	// where it has one, the reference otherwise.
	lockstepKind, lockstepSessions := "lockstep_clean", 1
	if name == "lockstep_clean" || name == "lockstep_lossy" {
		lockstepKind, lockstepSessions = name, len(games.Names())
	}
	fleetCfg := fleetConfig(seed, 0, fleetMeasure(seconds))
	if name != "relay_sim_fleet" {
		fleetCfg.Model.Sessions, fleetCfg.Measure = 256, time.Second
	}
	relayCfg := relay.Config{Shards: benchProcs(), SessionTTL: time.Hour}
	lc := lockstepConfig(lockstepKind, seed, 0)
	link := netem.Config{Delay: lc.RTT / 2, Jitter: lc.Jitter, ProcDelay: lc.ProcDelay, Loss: lc.Loss,
		BurstLoss: lc.BurstLoss, Duplicate: lc.Duplicate, Seed: seed}
	switch name {
	case "relay_udp_telemetry":
		relayCfg = telemetryConfig(relayCfg)
	case "relay_sim_fleet":
		relayCfg = fleetRelayConfig(fleetCfg)
		link, _, _ = netem.Profile(fleetCfg.Profile, seed)
	}

	lt, err := l.traceLockstep(lockstepKind, seed, lockstepSessions)
	if err != nil {
		return nil, err
	}
	if err := l.probeAll(link, relayCfg); err != nil {
		return nil, err
	}
	fleetE2E, fleetLayers, fleetOverhead, err := l.traceFleet(fleetCfg)
	if err != nil {
		return nil, err
	}

	switch name {
	case "lockstep_clean", "lockstep_lossy":
		// The session is as slow as site 0's actor: its layers' self times
		// plus the time it sat parked. Of the parked time the clock's own
		// cost is known from the probe; the rest is the other site's work and
		// scheduler hand-offs.
		f := lt.frames
		rep.PerOp = "one simulated frame; site 0's actor"
		rep.Rows = rowsOf(lt.agg0, f)
		rep.Layers = map[string]float64{}
		layers := 0.0
		for layer, ns := range layerSelf(lt.agg0) {
			if layer == "vclock" {
				continue // parked time is no layer's self time
			}
			rep.Layers[layer] = float64(ns) / f
			layers += float64(ns) / f
		}
		rep.Layers["vclock"] = float64(lt.agg0[spSleep].Calls) / f * l.m["vclock.ns_per_wake_2"]
		layers += rep.Layers["vclock"]
		rep.Recon[0] = float64(lt.wall) / f
		rep.Recon[1] = layers
		rep.Overhead = float64(lt.wall) / float64(lt.unWall)
		l.m["vm.frames_per_op"] = 2
		r.Ops = map[string]int64{"traced_sessions": int64(lockstepSessions), "frames_per_session": lockstepFrames}
	case "relay_udp_bare", "relay_udp_telemetry":
		e2e, overhead, file, spans, rows, err := l.traceUDP(name, seed, seconds)
		if err != nil {
			return nil, err
		}
		rep.SpanFiles = append(rep.SpanFiles, file)
		rep.Spans += spans
		rep.PerOp = "one relayed datagram; relay child CPU"
		rep.Rows = rows
		rep.Layers = map[string]float64{
			"relay": l.m["relay.route_ns_per_dgram"] + l.m["relay.step_ns_per_dgram"] +
				l.m["relay.front_recv_ns_per_dgram"] + l.m["relay.front_send_ns_per_dgram"],
		}
		if name == "relay_udp_telemetry" {
			perSecond := float64(udpSessions * 2 * udpFrameHz)
			rep.Layers["obs"] = 1e3 * (l.m["obs.fleet_tick_us"] + l.m["obs.history_sample_us"] + l.m["obs.scrape_us"]) / perSecond
		}
		rep.Recon[0] = e2e
		for _, ns := range rep.Layers {
			rep.Recon[1] += ns
		}
		rep.Overhead = overhead
		r.Ops = map[string]int64{"sessions": udpSessions, "datagrams_per_s": udpSessions * 2 * udpFrameHz}
	case "relay_sim_fleet":
		rep.PerOp = "one delivered datagram; trafficgen.Run wall"
		rep.Layers = map[string]float64{"relay+simnet+netem+vclock (probed)": fleetLayers}
		rep.Recon[0], rep.Recon[1] = fleetE2E, fleetLayers
		rep.Overhead = fleetOverhead
		r.Ops = map[string]int64{"sessions": int64(fleetCfg.Model.Sessions), "measure_ms": fleetCfg.Measure.Milliseconds()}
	}
	rep.Recon[2] = rep.Recon[0] - rep.Recon[1]
	rep.Fidelity = lt.fidelity
	l.m["recon.e2e_ns_per_op"], l.m["recon.layers_ns_per_op"], l.m["recon.unattributed_ns_per_op"] = rep.Recon[0], rep.Recon[1], rep.Recon[2]
	l.m["trace.overhead_ratio"] = rep.Overhead

	file := spanFilePath(name)
	n, err := writeSpans(file, l.bufs)
	if err != nil {
		return nil, err
	}
	rep.SpanFiles = append(rep.SpanFiles, file)
	rep.Spans += n

	r.Metrics = l.m
	r.Attempted, r.Failed, r.Incorrect, r.Failures = l.attempted, l.failed, l.incorrect, l.failures
	return r, nil
}
