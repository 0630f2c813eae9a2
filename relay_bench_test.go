// Benchmarks for the relayd packet path, part of make bench-hotpath's
// 0-allocs/op gate beside the sync hot path: Route (token demux onto shard
// queues), Shard.Step (the per-shard forward/flush cycle) and the UDPFront
// socket layer under both. Route and Step report per-datagram cost, the
// socket layer per batch; all must stay allocation-free in steady state —
// buffers recycle through the relay's pool, so a regression here shows up
// as allocs/op before it shows up as p99 frame time in production.
// TestRelayShardStepStatsDoesNotAllocate is the twin of the Route/Step
// benchmarks; the socket layer's twin is TestRelayUDPFrontDoesNotAllocate
// in internal/relay, which also runs the front's portable fallback.
package retrolock_test

import (
	"fmt"
	"testing"
	"time"

	"retrolock/internal/capture"
	"retrolock/internal/obs"
	"retrolock/internal/obs/history"
	"retrolock/internal/relay"
)

// nullFront is a Front that discards sends; the benchmarks never Start the
// daemon, so Recv is never called.
type nullFront struct{}

func (nullFront) Recv(ms []relay.Message) (int, error) { select {} }
func (nullFront) Send(ms []relay.Message) (int, error) { return len(ms), nil }
func (nullFront) LocalAddr() string                    { return "null:0" }
func (nullFront) Close() error                         { return nil }

// benchRelayDaemon builds an unstarted daemon with nSessions placed and both
// site slots bound, returning the tokens and per-session site addresses.
// Stepping is done manually by the benchmark loop, standing in for the shard
// loops. cfg.MaxSessions is overridden to nSessions.
func benchRelayDaemon(b testing.TB, cfg relay.Config, nSessions int) (*relay.Daemon, []relay.Token, [][2]relay.Addr) {
	b.Helper()
	cfg.MaxSessions = nSessions
	d, err := relay.NewDaemon(cfg, []relay.Front{nullFront{}})
	if err != nil {
		b.Fatal(err)
	}
	toks := make([]relay.Token, nSessions)
	addrs := make([][2]relay.Addr, nSessions)
	for i := range toks {
		p, err := d.Place()
		if err != nil {
			b.Fatal(err)
		}
		toks[i] = p.Token
		addrs[i] = [2]relay.Addr{
			{Sim: fmt.Sprintf("A-%d", i)},
			{Sim: fmt.Sprintf("B-%d", i)},
		}
	}
	// Bind both slots of every session by routing one datagram per site from
	// its home address, exactly how a production relay learns NAT mappings.
	ms := make([]relay.Message, 1)
	for i, tok := range toks {
		for site := 0; site < 2; site++ {
			buf := make([]byte, relay.MaxDatagram)
			n := relay.PutHeader(buf, tok, site)
			ms[0] = relay.Message{Buf: buf[:n], Addr: addrs[i][site]}
			d.Route(ms, 1)
		}
	}
	for _, sh := range d.Shards() {
		sh.Step()
	}
	for _, sh := range d.Shards() {
		if sh.Active() == 0 && nSessions >= len(d.Shards()) {
			b.Fatalf("shard %s has no sessions after setup", sh.Addr())
		}
	}
	return d, toks, addrs
}

// benchRelayBatch pre-sizes a reusable receive batch. Route refills each
// handed-over slot from the buffer pool, so after the first pass every
// buffer in flight is pool-recycled and the loop allocates nothing.
func benchRelayBatch(batch int) []relay.Message {
	ms := make([]relay.Message, batch)
	for i := range ms {
		ms[i].Buf = make([]byte, relay.MaxDatagram)
	}
	return ms
}

// stampRelayBatch rewrites headers and payload for one receive batch,
// cycling datagrams across sessions and sites like interleaved client
// traffic.
func stampRelayBatch(ms []relay.Message, toks []relay.Token, addrs [][2]relay.Addr, round int) {
	const payload = 24 // typical input-sync datagram body
	for i := range ms {
		k := (round*len(ms) + i) % (2 * len(toks))
		tok, site := toks[k/2], k%2
		buf := ms[i].Buf[:relay.MaxDatagram]
		n := relay.PutHeader(buf, tok, site)
		ms[i].Buf = buf[:n+payload]
		ms[i].Addr = addrs[k/2][site]
	}
}

// BenchmarkRelayDemux measures the full reader-side packet path per
// datagram: Route's token demux across 8 shards plus each shard's
// Step (ingest, forward, flush). This is the figure the sessions-per-core
// capacity claim rests on.
func BenchmarkRelayDemux(b *testing.B) {
	const batch = 64
	d, toks, addrs := benchRelayDaemon(b, relay.Config{Shards: 8}, 256)
	defer d.Close()
	ms := benchRelayBatch(batch)
	shards := d.Shards()
	b.ReportAllocs()
	b.ResetTimer()
	for n, round := 0, 0; n < b.N; n, round = n+batch, round+1 {
		stampRelayBatch(ms, toks, addrs, round)
		d.Route(ms, batch)
		for _, sh := range shards {
			sh.Step()
		}
	}
}

// BenchmarkRelayUDPFront measures the relay's socket layer: one op is a
// 64-datagram batch round-tripping between two UDPFronts on 127.0.0.1
// (client Send, relay Recv, relay Send back to each source, client Recv) —
// on Linux the recvmmsg/sendmmsg path relayd runs. An op is a batch, not a
// datagram, so that a per-syscall allocation reads at least 1 allocs/op
// instead of rounding to 0. The kernel's loopback dominates ns/op; the gate
// is its 0 allocs/op.
func BenchmarkRelayUDPFront(b *testing.B) {
	const batch = 64
	client, err := relay.ListenUDPFront("127.0.0.1:0")
	if err != nil {
		b.Skipf("udp unavailable: %v", err)
	}
	defer client.Close()
	srv, err := relay.ListenUDPFront("127.0.0.1:0")
	if err != nil {
		b.Skipf("udp unavailable: %v", err)
	}
	defer srv.Close()
	// A lost datagram would block a Recv forever; closing the fronts turns
	// that into an error instead.
	watchdog := time.AfterFunc(time.Minute, func() {
		client.Close()
		srv.Close()
	})
	defer watchdog.Stop()
	out, in := benchRelayBatch(batch), benchRelayBatch(batch)
	for i := range out {
		out[i].Buf = out[i].Buf[:relay.HeaderLen+24]
		out[i].Addr = relay.Addr{AP: srv.AddrPort()}
	}
	if err := udpFrontRoundTrip(client, srv, out, in); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := udpFrontRoundTrip(client, srv, out, in); err != nil {
			b.Fatal(err)
		}
	}
}

// udpFrontRoundTrip sends out from client to srv, echoes every datagram srv
// receives back to its source in the batches Recv returned, and reads all
// of them back at client. Each Recv may return fewer datagrams than asked
// for, so both sides loop until the whole batch is in.
func udpFrontRoundTrip(client, srv *relay.UDPFront, out, in []relay.Message) error {
	if _, err := client.Send(out); err != nil {
		return err
	}
	for got := 0; got < len(out); {
		n, err := srv.Recv(in)
		if err != nil {
			return err
		}
		if _, err := srv.Send(in[:n]); err != nil {
			return err
		}
		got += n
	}
	for got := 0; got < len(out); {
		n, err := client.Recv(in[got:])
		if err != nil {
			return err
		}
		got += n
	}
	return nil
}

// BenchmarkRelayShardStep isolates one shard's Step over a pre-filled
// 64-datagram queue — the event-loop body without the demux in front of it.
func BenchmarkRelayShardStep(b *testing.B) {
	const batch = 64
	d, toks, addrs := benchRelayDaemon(b, relay.Config{Shards: 1}, 64)
	defer d.Close()
	ms := benchRelayBatch(batch)
	sh := d.Shards()[0]
	b.ReportAllocs()
	b.ResetTimer()
	for n, round := 0, 0; n < b.N; n, round = n+batch, round+1 {
		b.StopTimer()
		stampRelayBatch(ms, toks, addrs, round)
		d.Route(ms, batch)
		b.StartTimer()
		sh.Step()
	}
}

// BenchmarkRelayShardStepCaptured is BenchmarkRelayShardStep with an RKCP
// capture tap on the shard — the -capture relayd configuration. The tap
// records both the ingest and the forward of every datagram (two Record
// calls per relayed packet); the delta against the untapped benchmark is
// the full price of leaving capture on in production.
func BenchmarkRelayShardStepCaptured(b *testing.B) {
	const batch = 64
	// Sized like relayd's -capture tap; once the arena fills, recording
	// degrades to counted drops and the cost only goes down.
	tap := capture.NewRecorder(1<<16, 1<<24)
	d, toks, addrs := benchRelayDaemon(b, relay.Config{Shards: 1, Tap: tap}, 64)
	defer d.Close()
	ms := benchRelayBatch(batch)
	sh := d.Shards()[0]
	b.ReportAllocs()
	b.ResetTimer()
	for n, round := 0, 0; n < b.N; n, round = n+batch, round+1 {
		b.StopTimer()
		stampRelayBatch(ms, toks, addrs, round)
		d.Route(ms, batch)
		b.StartTimer()
		sh.Step()
	}
}

// BenchmarkRelayShardStepStats is BenchmarkRelayShardStep with per-session
// stat blocks enabled (relayd's fleet-observability configuration, minus
// the anomaly rings): every ingested datagram updates its session's
// counters, inter-arrival and residence histograms inline. The delta
// against the plain benchmark is the price of making every hosted session
// individually gradeable — and it must stay 0 allocs/op.
func BenchmarkRelayShardStepStats(b *testing.B) {
	const batch = 64
	d, toks, addrs := benchRelayDaemon(b, relay.Config{Shards: 1, Stats: true}, 64)
	defer d.Close()
	ms := benchRelayBatch(batch)
	sh := d.Shards()[0]
	b.ReportAllocs()
	b.ResetTimer()
	for n, round := 0, 0; n < b.N; n, round = n+batch, round+1 {
		b.StopTimer()
		stampRelayBatch(ms, toks, addrs, round)
		d.Route(ms, batch)
		b.StartTimer()
		sh.Step()
	}
}

// BenchmarkRelayShardStepStatsRing adds the per-session anomaly-capture
// rings on top of the stat blocks — the full -autocapture relayd
// configuration, each ring continuously evicting its oldest traffic to
// admit the newest.
func BenchmarkRelayShardStepStatsRing(b *testing.B) {
	const batch = 64
	d, toks, addrs := benchRelayDaemon(b,
		relay.Config{Shards: 1, Stats: true, AutoCaptureRecords: 64, AutoCaptureBytes: 8 << 10}, 64)
	defer d.Close()
	ms := benchRelayBatch(batch)
	sh := d.Shards()[0]
	b.ReportAllocs()
	b.ResetTimer()
	for n, round := 0, 0; n < b.N; n, round = n+batch, round+1 {
		b.StopTimer()
		stampRelayBatch(ms, toks, addrs, round)
		d.Route(ms, batch)
		b.StartTimer()
		sh.Step()
	}
}

// TestRelayShardStepStatsDoesNotAllocate is the tier-1 twin of every relay
// benchmark above and below: Route + Step over the same daemons, with
// nothing attached, with a capture tap, with per-session stats, with stats
// and the anomaly ring, and with the history cadence riding each step, must
// allocate nothing in steady state. (The one churn-time allocation —
// republishing a shard's session table — happens only on
// register/close/expire, which the loop below never does.)
func TestRelayShardStepStatsDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("the race runtime drops sync.Pool puts at random, so the pooled buffer path allocates under -race by design")
	}
	const batch = 64
	tap := capture.NewRecorder(1<<17, 1<<22) // holds every datagram below
	for _, tc := range []struct {
		name     string
		cfg      relay.Config
		sessions int
		history  bool
	}{
		{"Demux", relay.Config{Shards: 8}, 256, false},
		{"Step", relay.Config{Shards: 1}, 64, false},
		{"StepCaptured", relay.Config{Shards: 1, Tap: tap}, 64, false},
		{"StepStats", relay.Config{Shards: 1, Stats: true}, 64, false},
		{"StepStatsRing", relay.Config{Shards: 1, Stats: true, AutoCaptureRecords: 64, AutoCaptureBytes: 8 << 10}, 64, false},
		{"StepHistory", relay.Config{Shards: 1, Stats: true}, 64, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			d, toks, addrs := benchRelayDaemon(t, tc.cfg, tc.sessions)
			defer d.Close()
			var sample func(time.Time)
			if tc.history {
				sample = benchRelayHistory(t, d)
			}
			ms := benchRelayBatch(batch)
			now := time.Date(2009, 6, 22, 0, 0, 0, 0, time.UTC)
			round := 0
			step := func() {
				stampRelayBatch(ms, toks, addrs, round)
				round++
				d.Route(ms, batch)
				for _, sh := range d.Shards() {
					sh.Step()
				}
				if sample != nil {
					now = now.Add(time.Second)
					sample(now)
				}
			}
			for i := 0; i < 100; i++ { // reach steady-state pool/arena occupancy
				step()
			}
			if allocs := testing.AllocsPerRun(500, step); allocs != 0 {
				t.Fatalf("relay packet path (%s) allocates %v per batch, want 0", tc.name, allocs)
			}
		})
	}
	if dropped := tap.Snapshot(capture.Meta{}).Meta.Dropped; tap.Len() == 0 || dropped != 0 {
		t.Fatalf("capture tap recorded %d datagrams and dropped %d, want all recorded", tap.Len(), dropped)
	}
}

// BenchmarkRelayShardStepHistory is BenchmarkRelayShardStepStats with the
// full history/alerting cadence riding each step: the fleet grader's
// verdict gauges registered on an obs registry, the history store retaining
// them at three resolutions, and a burn-rate rule evaluated every tick. In
// production the retention tick fires once per second, not once per batch —
// this benchmark deliberately overweights it so a regression in the
// sampling path is visible per shard step, and so the allocs/op gate pins
// the whole cadence at zero.
func BenchmarkRelayShardStepHistory(b *testing.B) {
	const batch = 64
	d, toks, addrs := benchRelayDaemon(b, relay.Config{Shards: 1, Stats: true}, 64)
	defer d.Close()
	sample := benchRelayHistory(b, d)
	ms := benchRelayBatch(batch)
	sh := d.Shards()[0]
	now := time.Date(2009, 6, 22, 0, 0, 0, 0, time.UTC)
	for i := 0; i < 64; i++ { // warm the rings past their first slot seals
		now = now.Add(time.Second)
		sample(now)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for n, round := 0, 0; n < b.N; n, round = n+batch, round+1 {
		b.StopTimer()
		stampRelayBatch(ms, toks, addrs, round)
		d.Route(ms, batch)
		now = now.Add(time.Second)
		b.StartTimer()
		sh.Step()
		sample(now)
	}
}

// benchRelayHistory wires the history/alerting cadence onto d — the fleet
// grader's verdict gauges on an obs registry, the history store
// retaining them at three resolutions, and one burn-rate rule — and
// returns its retention tick.
func benchRelayHistory(tb testing.TB, d *relay.Daemon) func(time.Time) {
	tb.Helper()
	fl, err := relay.NewFleet(d, relay.FleetConfig{Window: time.Second})
	if err != nil {
		tb.Fatal(err)
	}
	reg := obs.NewRegistry()
	fl.Register(reg)
	svc := history.Wire(reg, history.Options{
		Rules: []history.Rule{{
			Name:   "fleet-session-health",
			Source: history.SourceGauge,
			Bad: []string{
				obs.Key(relay.MetricSessionVerdicts, obs.Labels{"state": "degraded"}),
				obs.Key(relay.MetricSessionVerdicts, obs.Labels{"state": "infeasible"}),
			},
			Total:      []string{relay.MetricSessionTracked},
			Budget:     0.05,
			FastWindow: time.Minute,
			SlowWindow: 5 * time.Minute,
		}},
	})
	return svc.Sample
}
