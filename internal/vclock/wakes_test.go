package vclock_test

import (
	"testing"
	"time"

	"retrolock/internal/core"
	"retrolock/internal/harness"
	"retrolock/internal/netem"
	"retrolock/internal/rig"
	"retrolock/internal/rom/games"
	"retrolock/internal/simnet"
	"retrolock/internal/transport"
	"retrolock/internal/vclock"
)

// TestSessionSleepsPerFrame pins what the event-driven SyncInput wait saves
// the scheduler: virtual sleeps (Sleep and Nap calls) per frame, both sites
// together, over a two-site, 3600-frame session wired like harness.Run, on
// the paper-calibrated link at RTT 100 ms and on the lossy ARQ link (RTT
// 160 ms, 10 ms jitter, 5 % burst loss, 1 % duplication). Polling every
// millisecond, a blocked site sleeps once per poll: 6.6 and 43.7 sleeps per
// frame on these two links. Napping, it sleeps only until a poll can find
// work.
func TestSessionSleepsPerFrame(t *testing.T) {
	for _, tc := range []struct {
		name  string
		link  netem.Config
		arq   bool
		bound float64
	}{
		{"clean", netem.Config{Delay: 50 * time.Millisecond}, false, 5},
		{"lossy", netem.Config{Delay: 80 * time.Millisecond, Jitter: 10 * time.Millisecond,
			Loss: 0.05, BurstLoss: true, Duplicate: 0.01}, true, 15},
	} {
		t.Run(tc.name, func(t *testing.T) {
			const frames = harness.DefaultFrames
			v := vclock.NewVirtual(time.Date(2009, 6, 22, 0, 0, 0, 0, time.UTC))
			n := simnet.New(v)
			link := func(seed int64) netem.Config {
				c := tc.link
				c.ProcDelay, c.Seed = harness.PaperCalibration().ProcDelay, seed
				return c
			}
			netem.Install(n, "site0", "site1", link(1), link(2))
			c0, c1, err := transport.SimPair(n, "site0", "site1")
			if err != nil {
				t.Fatal(err)
			}
			var sites [2]*rig.Site
			for i, c := range []transport.Conn{c0, c1} {
				sp := rig.Spec{
					Clock: v, Game: "pong", ROM: games.MustLoad("pong"),
					Config: core.Config{SiteNo: i, NumPlayers: 2, WaitTimeout: harness.DefaultTimeout},
					Cost:   harness.DefaultEmulation,
				}
				if tc.arq {
					sp.ARQ = transport.NewARQ(c, v, 0)
					c = sp.ARQ
				}
				sp.Peers = []core.Peer{{Site: 1 - i, Conn: c}}
				if sites[i], err = rig.New(sp); err != nil {
					t.Fatal(err)
				}
			}
			err = rig.Run(v, 2, func(site int) error {
				return sites[site].Play(frames, func(f int) uint16 { return harness.PlayerInput(1, site, f) }, nil)
			})
			if err != nil {
				t.Fatal(err)
			}
			perFrame := float64(vclock.Parks(v)) / frames
			t.Logf("%.2f sleeps per frame", perFrame)
			if perFrame > tc.bound {
				t.Errorf("%.2f sleeps per frame, want at most %v", perFrame, tc.bound)
			}
		})
	}
}
