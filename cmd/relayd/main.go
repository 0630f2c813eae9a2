// Command relayd hosts thousands of concurrent two-site sessions in one
// process: an embedded lobby admits pairs and hands them a token plus a
// relay front address; token-prefixed game datagrams are then demuxed onto
// shared-nothing shard loops and forwarded between the two sites. Every
// hosted session is individually graded through the fleet aggregator
// (healthy/degraded/infeasible), served on /sessions when -obs is set.
//
//	relayd -listen :7300 -lobby :7200 -shards 8 -obs :6060 -autocapture /var/tmp/relayd
//
// Clients rendezvous exactly as against lobbyd; the only difference is the
// RELAY reply. See DESIGN.md ("relayd", "Fleet observability") for the
// shard and grading model and README.md for a two-client quickstart plus
// the degraded-session runbook.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"sync"
	"syscall"
	"time"

	"retrolock/internal/capture"
	"retrolock/internal/lobby"
	"retrolock/internal/obs"
	"retrolock/internal/obs/history"
	"retrolock/internal/relay"
)

var (
	listen      = flag.String("listen", ":7300", "base UDP address for relay fronts (port 0 = ephemeral; otherwise front i binds port+i)")
	fronts      = flag.Int("fronts", 1, "number of UDP sockets, one reader goroutine each; readers run the shards they feed, so this sets the packet path's parallelism")
	lobbyAddr   = flag.String("lobby", ":7200", "UDP address for the embedded admission lobby")
	shards      = flag.Int("shards", 8, "shared-nothing event loops")
	advertise   = flag.String("advertise", "", "front address to hand to clients (default: the bound address)")
	obsAddr     = flag.String("obs", "", "serve metrics/healthz/sessions/pprof on this HTTP address (e.g. :6060)")
	capturePath = flag.String("capture", "", "write an RKCP capture of relayed traffic to this file on shutdown (bounded in-memory tap)")
	topK        = flag.Int("topk", 16, "worst-sessions rows kept on the /sessions ops surface")
	gradeEvery  = flag.Duration("grade-window", time.Second, "per-session QoE grading window")
	autoCapture = flag.String("autocapture", "", "directory for anomaly .rkcp bundles snapshotted when a session degrades (empty: grade without capturing)")
)

// gradeTarget is the per-site inter-datagram gap the fleet grader treats as
// healthy: two 60 FPS frame intervals. Clients coalesce unchanged inputs,
// so a healthy session's per-site relay cadence averages under one datagram
// per frame — grading against the raw 16.67 ms frame target flags clean
// sessions as degraded. Every relay, lobby and fleet setting without a flag
// is its package's default.
const gradeTarget = 2 * 16670 * time.Microsecond

// fleetParams returns the -topk and -grade-window settings, clamping
// nonsense values back to the documented defaults.
func fleetParams() (k int, window time.Duration) {
	k, window = *topK, *gradeEvery
	if k <= 0 {
		k = 16
	}
	if window <= 0 {
		window = time.Second
	}
	return k, window
}

// newFlusher wraps the shutdown evidence flush so it runs exactly once no
// matter which path gets there first. Both the signal handler and the normal
// exit path call it: relying on srv.Serve unwinding cleanly after a SIGTERM
// lost the -capture snapshot whenever shutdown stalled past the operator's
// patience — the signal path now flushes directly.
func newFlusher(f func()) func() {
	var once sync.Once
	return func() { once.Do(f) }
}

// writeTap snapshots the whole-daemon capture tap to -capture's path.
func writeTap(tap *capture.Recorder, path string) error {
	c := tap.Snapshot(capture.Meta{Notes: "relayd -capture tap"})
	if err := os.WriteFile(path, c.Encode(), 0o644); err != nil {
		return err
	}
	log.Printf("capture: wrote %d datagrams (%d dropped) to %s", len(c.Records), c.Meta.Dropped, path)
	return nil
}

// writeBundle writes one anomaly capture into the -autocapture directory as
// anomaly-<token>-<verdict>.rkcp and returns the path.
func writeBundle(dir string, ac relay.AnomalyCapture) (string, error) {
	path := filepath.Join(dir, fmt.Sprintf("anomaly-%s-%s.rkcp", ac.Token, ac.State))
	if err := os.WriteFile(path, ac.Capture.Encode(), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("relayd: ")
	flag.Parse()

	r, err := start()
	if err != nil {
		log.Fatal(err)
	}
	go func() {
		sigs := make(chan os.Signal, 1)
		signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
		<-sigs
		log.Print("shutting down")
		r.stop()
	}()
	if err := r.serve(); err != nil {
		log.Fatal(err)
	}
}

// relayd is one wired daemon: the relay and its fronts, the fleet grader,
// the admission lobby, the optional observability plane, and the evidence
// flush both shutdown paths end in.
type relayd struct {
	d      *relay.Daemon
	srv    *lobby.Server
	flush  func()
	done   chan struct{} // closed by the flush; stops the history sampler
	obsSrv *obs.Server   // nil without -obs
}

// start wires relayd from its flags and starts everything but the lobby's
// serve loop (serve runs it).
func start() (*relayd, error) {
	var tap *capture.Recorder
	if *capturePath != "" {
		// Bounded tap: once full it drops with a count instead of growing,
		// so it is safe to leave on in production.
		tap = capture.NewRecorder(1<<16, 1<<24)
	}
	fs, err := bindFronts(*listen, *fronts)
	if err != nil {
		return nil, err
	}
	cfg := relay.Config{
		Shards: *shards,
		Tap:    tap,
		Stats:  true, // fleet grading is always on; it costs no allocations
	}
	if *autoCapture != "" {
		if err := os.MkdirAll(*autoCapture, 0o755); err != nil {
			return nil, err
		}
		// Per-session anomaly rings only when somewhere to write bundles.
		cfg.AutoCaptureRecords = 64
		cfg.AutoCaptureBytes = 8 << 10
	}
	d, err := relay.NewDaemon(cfg, fs)
	if err != nil {
		return nil, err
	}
	d.Start()
	for _, f := range fs {
		mode := "portable"
		if uf, ok := f.(*relay.UDPFront); ok && uf.Batched() {
			mode = "mmsg-batched"
		}
		log.Printf("front %s (%s)", f.LocalAddr(), mode)
	}
	r := &relayd{d: d, done: make(chan struct{})}

	k, window := fleetParams()
	fcfg := relay.FleetConfig{
		TopK:   k,
		Window: window,
		Health: obs.HealthConfig{FrameTarget: gradeTarget},
	}
	// Bound when -obs is on (below); OnCapture closes over it so every bundle
	// written to disk is also filed against the open incident's timeline.
	var svc *history.Service
	if dir := *autoCapture; dir != "" {
		fcfg.OnCapture = func(ac relay.AnomalyCapture) {
			path, err := writeBundle(dir, ac)
			if err != nil {
				log.Printf("autocapture: %v", err)
				return
			}
			log.Printf("autocapture: session %s graded %s, wrote %s (%d datagrams)",
				ac.Token, ac.State, path, len(ac.Capture.Records))
			if svc != nil {
				svc.Log.AttachCapture("", history.CaptureRef{
					Session: ac.Token.String(), Path: path, AtNs: time.Now().UnixNano(),
				})
			}
		}
	}
	fl, err := relay.NewFleet(d, fcfg)
	if err != nil {
		return nil, err
	}
	fl.Start()
	log.Printf("fleet grading every %v (top-%d ops surface)", window, k)

	r.srv, err = lobby.ListenConfig(*lobbyAddr, lobby.Config{
		Placer: relay.LobbyPlacer{D: d, Advertise: *advertise},
	})
	if err != nil {
		return nil, err
	}
	log.Printf("admission lobby on %s (%d shards)", r.srv.Addr(), *shards)

	if *obsAddr != "" {
		reg := obs.NewRegistry()
		relay.RegisterMetrics(reg, d)
		lobby.RegisterMetrics(reg, r.srv)
		obs.RegisterProcessMetrics(reg)
		fl.Register(reg)
		// Grade shard step pacing on the health engine: a relay whose event
		// loops fall behind frame cadence is infeasible for every session
		// it hosts.
		health := obs.NewHealth(obs.HealthConfig{}, obs.HealthSources{FrameTime: d.StepTime})
		health.Register(reg, 0)
		// History retention + burn-rate alerting over everything registered
		// above. The fleet-health alert burns when more than 4x a 5% budget
		// of tracked sessions grade unhealthy over both the one-minute and
		// five-minute windows; firing opens an incident on /incidents and
		// snapshots one representative burning session's anomaly ring (the
		// same rate-limited path a per-session flip takes).
		svc = history.Wire(reg, history.Options{
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
				Threshold:  4,
			}},
			OnTransition: func(ev history.Event) {
				if !ev.Firing {
					log.Printf("alert %s cleared (burn fast=%.1f slow=%.1f)", ev.Name, ev.BurnFast, ev.BurnSlow)
					return
				}
				log.Printf("alert %s FIRING (burn fast=%.1f slow=%.1f)", ev.Name, ev.BurnFast, ev.BurnSlow)
				at := time.Unix(0, ev.AtNs)
				snap := fl.Snapshot()
				svc.Log.Annotate(ev.Name, at, "fleet: %d tracked, %d degraded, %d infeasible, %d flips",
					snap.Summary.Tracked, snap.Summary.Degraded, snap.Summary.Infeasible, snap.Summary.Flips)
				if tok, ok := fl.CaptureBurning(at); ok {
					log.Printf("alert %s: captured burning session %s", ev.Name, tok)
				}
			},
		})
		go func() {
			tick := time.NewTicker(svc.Store.BaseStep())
			defer tick.Stop()
			for {
				select {
				case <-r.done:
					return
				case now := <-tick.C:
					health.Evaluate(now)
					svc.Sample(now)
				}
			}
		}()
		if r.obsSrv, err = obs.Serve(*obsAddr, reg); err != nil {
			return nil, err
		}
		log.Printf("observability on http://%s/ (metrics, healthz, sessions, history, alerts, incidents, pprof)", r.obsSrv.Addr())
	}

	// The evidence flush: stop the fleet loop, then write the deferred
	// anomaly bundles (the rate limiter may be sitting on a degraded
	// session's capture), then the whole-tap snapshot. Idempotent — both
	// shutdown paths call it.
	r.flush = newFlusher(func() {
		close(r.done)
		fl.Close()
		if n := fl.FlushPending(time.Now()); n > 0 {
			log.Printf("autocapture: flushed %d deferred anomaly bundles", n)
		}
		if tap != nil {
			if err := writeTap(tap, *capturePath); err != nil {
				log.Printf("capture: %v", err)
			}
		}
	})
	return r, nil
}

// serve runs the admission lobby until stop closes it, then shuts the relay
// down and flushes the evidence.
func (r *relayd) serve() error {
	err := r.srv.Serve()
	_ = r.d.Close()
	r.flush()
	if r.obsSrv != nil {
		_ = r.obsSrv.Close()
	}
	return err
}

// stop is the signal path: it flushes the evidence itself rather than wait
// for serve to unwind, so a stalled shutdown cannot lose the capture.
func (r *relayd) stop() {
	_ = r.srv.Close()
	_ = r.d.Close()
	r.flush()
}

// bindFronts opens n UDP sockets: with port 0 each is ephemeral, otherwise
// front i binds port+i so deployments can open a contiguous range.
func bindFronts(base string, n int) ([]relay.Front, error) {
	if n < 1 {
		n = 1
	}
	host, portStr, err := net.SplitHostPort(base)
	if err != nil {
		return nil, fmt.Errorf("bad -listen %q: %w", base, err)
	}
	port, err := strconv.Atoi(portStr)
	if err != nil {
		return nil, fmt.Errorf("bad -listen port %q: %w", portStr, err)
	}
	fs := make([]relay.Front, 0, n)
	for i := 0; i < n; i++ {
		p := port
		if p != 0 {
			p = port + i
		}
		f, err := relay.ListenUDPFront(net.JoinHostPort(host, strconv.Itoa(p)))
		if err != nil {
			for _, g := range fs {
				_ = g.Close()
			}
			return nil, err
		}
		fs = append(fs, f)
	}
	return fs, nil
}
