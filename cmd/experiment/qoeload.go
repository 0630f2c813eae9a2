package main

import (
	"fmt"

	"retrolock/internal/harness"
	"retrolock/internal/netem"
	"retrolock/internal/obs"
)

// qoeload is the QoE experiment series: what session quality does each
// access-network profile yield once the traffic goes through a relay? It
// runs the harness per profile × sync mode (lockstep vs rollback), with the
// relayed path folded into the peer link (double delay, compound loss), and
// so ties the relay's link profiles back to the paper's frame-time metrics.
// The load generator's own verdicts per profile are `make qoe`'s table
// (internal/trafficgen/testdata/qoe_baseline.txt).
func qoeload(base harness.Config) error {
	fmt.Println()
	fmt.Println("== qoeload: harness verdicts, profile x sync mode ==")
	fmt.Println("relayed path folded into the peer link: RTT = 4x one-way link delay,")
	fmt.Println("compound loss; health engine grades the lockstep runs")
	fmt.Println()
	ht := &obs.Table{Header: []string{"profile", "mode", "fps", "frame-mad", "health"}}
	for _, name := range netem.Profiles() {
		fwd, _, err := netem.Profile(name, base.Seed)
		if err != nil {
			return err
		}
		for _, rollback := range []bool{false, true} {
			cfg := base
			cfg.RTT = 4 * fwd.Delay
			cfg.Jitter = 2 * fwd.Jitter
			cfg.Loss = 2 * fwd.Loss
			cfg.BurstLoss = fwd.BurstLoss
			cfg.MeanBurst = fwd.MeanBurst
			cfg.Rollback = rollback
			res, err := harness.Run(cfg)
			if err != nil {
				return err
			}
			mode, verdict := "lockstep", fmt.Sprint(res.Health)
			if rollback {
				// The health SLO engine grades lockstep sessions only.
				mode, verdict = "rollback", "-"
			}
			s := res.Sites[0]
			ht.AddRow(name, mode,
				fmt.Sprintf("%.1f", s.FPS),
				fmt.Sprintf("%.2fms", s.FrameTimes.MAD),
				verdict)
		}
	}
	fmt.Print(ht.String())
	return nil
}
