package harness

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strconv"
	"testing"
	"time"

	"retrolock/internal/capture"
	"retrolock/internal/core"
	"retrolock/internal/netem"
	"retrolock/internal/rig"
	"retrolock/internal/rom/games"
	"retrolock/internal/simnet"
	"retrolock/internal/transport"
	"retrolock/internal/vclock"
)

// pollingConn hides every optional interface of the conn it wraps: a site
// whose peers sit behind it can only learn about arrivals by polling.
type pollingConn struct{ transport.Conn }

func hideOptional(c transport.Conn) transport.Conn { return pollingConn{c} }

// TestEventWaitMatchesPolling runs each virtual-time configuration twice —
// as built, and with every peer conn behind pollingConn — and requires the
// two runs to agree on everything they produce: final hashes, protocol
// stats, frame times, every registry series and the wire capture. A blocked
// SyncInput may skip a poll only when that poll would have found nothing to
// do, so how a site waits must not show in any output.
func TestEventWaitMatchesPolling(t *testing.T) {
	lossy := PaperCalibration()
	lossy.ARQ, lossy.RTT, lossy.Jitter = true, 160*time.Millisecond, 10*time.Millisecond
	lossy.Loss, lossy.BurstLoss, lossy.Duplicate = 0.05, true, 0.01
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"clean", Config{RTT: 100 * time.Millisecond}},
		{"lossy", lossy},
		{"observers", Config{RTT: 50 * time.Millisecond, Loss: 0.02, Observers: 2}},
		{"rtt-swing", Config{RTT: 60 * time.Millisecond, Jitter: 5 * time.Millisecond,
			RTTSwing: 120 * time.Millisecond}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Frames, cfg.Seed = 600, 17
			built := runPrint(t, cfg)
			cfg.peerConn = hideOptional
			diffLines(t, built, runPrint(t, cfg))
		})
	}
	t.Run("silent-peer", func(t *testing.T) {
		diffLines(t, silentPeer(t, false), silentPeer(t, true))
	})
}

// runPrint runs cfg with a wire capture and renders everything the run
// produced as lines.
func runPrint(t *testing.T, cfg Config) []string {
	t.Helper()
	cfg.tap = capture.NewRecorder(1<<16, 1<<22)
	res := run(t, cfg)
	if d := cfg.tap.Snapshot(capture.Meta{}).Meta.Dropped; d != 0 {
		t.Fatalf("capture dropped %d records", d)
	}
	var out []string
	for i, s := range res.Sites {
		out = append(out,
			fmt.Sprintf("site %d: hash %#x frames %d lag %d/%d/%g", i, s.FinalHash, s.Frames, s.FinalLag, s.LagChanges, s.AvgLag),
			fmt.Sprintf("site %d stats: %+v", i, s.Stats),
			fmt.Sprintf("site %d frame times: %+v", i, s.FrameTimes))
	}
	out = append(out, fmt.Sprintf("sync %+v converged %v elapsed %v health %v", res.Sync, res.Converged, res.Elapsed, res.Health))
	snap := res.Registry.Snapshot()
	series := make([]string, 0, len(snap))
	for k, v := range snap {
		series = append(series, k+"="+strconv.FormatFloat(v, 'g', -1, 64))
	}
	sort.Strings(series)
	h := fnv.New64a()
	h.Write(cfg.tap.Snapshot(capture.Meta{Game: cfg.Game}).Encode())
	out = append(out, fmt.Sprintf("capture %#x", h.Sum64()))
	return append(out, series...)
}

// silentPeer runs two sites over an ARQ link with a lossy emulator; site 1
// leaves after 240 frames without draining, and site 0 blocks until its
// WaitTimeout fires. It renders the error (which names the frame), the
// instant it fired, both sites' stats and hashes. hide puts every peer conn
// behind pollingConn.
func silentPeer(t *testing.T, hide bool) []string {
	t.Helper()
	v := vclock.NewVirtual(time.Date(2009, 6, 22, 0, 0, 0, 0, time.UTC))
	net := simnet.New(v)
	link := func(seed int64) netem.Config {
		return netem.Config{Delay: 40 * time.Millisecond, Jitter: 5 * time.Millisecond,
			ProcDelay: DefaultProcDelay, Loss: 0.03, Duplicate: 0.01, Seed: seed}
	}
	netem.Install(net, "site0", "site1", link(3), link(4))
	c0, c1, err := transport.SimPair(net, "site0", "site1")
	if err != nil {
		t.Fatal(err)
	}
	game := games.MustLoad("pong")
	var sites [2]*rig.Site
	for i, c := range []transport.Conn{c0, c1} {
		arq := transport.NewARQ(c, v, 0)
		var conn transport.Conn = arq
		if hide {
			conn = hideOptional(conn)
		}
		sites[i], err = rig.New(rig.Spec{
			Clock: v, Game: "pong", ROM: game,
			Config: core.Config{SiteNo: i, NumPlayers: 2, WaitTimeout: 2 * time.Second},
			Peers:  []core.Peer{{Site: 1 - i, Conn: conn}},
			ARQ:    arq, Cost: DefaultEmulation,
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	var out []string
	err = rig.Run(v, 2, func(site int) error {
		s := sites[site]
		if err := s.Handshake(10 * time.Second); err != nil {
			return err
		}
		frames := 600
		if site == 1 {
			frames = 240
		}
		err := s.RunFrames(frames, func(f int) uint16 { return PlayerInput(9, site, f) }, nil)
		if site == 0 {
			if !errors.Is(err, core.ErrWaitTimeout) {
				return fmt.Errorf("site 0 ended with %v, want %v", err, core.ErrWaitTimeout)
			}
			out = append(out, fmt.Sprintf("timeout at %v: %v", v.Elapsed(), err))
			return nil
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range sites {
		out = append(out, fmt.Sprintf("site %d: hash %#x frames %d stats %+v", i, s.Machine.StateHash(), s.Machine.FrameCount(), s.Sync().Stats()))
	}
	return out
}

// diffLines fails with the lines on which two renderings disagree.
func diffLines(t *testing.T, built, polled []string) {
	t.Helper()
	if len(built) != len(polled) {
		t.Fatalf("as built: %d lines, polling: %d lines", len(built), len(polled))
	}
	bad := 0
	for i := range built {
		if built[i] != polled[i] {
			if bad++; bad <= 5 {
				t.Errorf("as built: %s\n    polling:  %s", built[i], polled[i])
			}
		}
	}
	if bad > 5 {
		t.Errorf("... %d differing lines in all", bad)
	}
}
