package main

import (
	"fmt"
	"time"

	"retrolock/internal/harness"
	"retrolock/internal/netem"
	"retrolock/internal/obs"
	"retrolock/internal/trafficgen"
)

// qoeload is the QoE experiment series: what session quality does each
// access-network profile yield once the traffic goes through a relay?
//
// Two tables, two methods, both in virtual time and bit-reproducible:
//
//  1. A deterministic trafficgen sweep (-sessions modeled sessions per
//     profile) — the same sweep `make qoe` pins against a golden baseline.
//  2. A harness run per profile × sync mode (lockstep vs rollback), with
//     the relayed path folded into the peer link (double delay, compound
//     loss) — connecting the load generator's verdicts back to the paper's
//     frame-time metrics.
func qoeload(base harness.Config) error {
	sessions, hz, _ := relayloadParams()

	fmt.Println()
	fmt.Println("== qoeload 1/2: virtual-time QoE sweep ==")
	fmt.Printf("%d modeled sessions per profile at %d Hz, think-time and churn active\n\n", sessions, hz)
	_, table, err := trafficgen.Sweep(trafficgen.SweepConfig{
		Model: trafficgen.Model{
			Sessions:      sessions,
			InputHz:       hz,
			CadenceJitter: 0.2,
			Think:         trafficgen.ThinkModel{Every: 2 * time.Second, For: 300 * time.Millisecond},
			Churn:         trafficgen.ChurnModel{LeaveEvery: 5 * time.Second, DownFor: 500 * time.Millisecond},
			Seed:          base.Seed,
		},
	})
	if err != nil {
		return err
	}
	fmt.Print(table.String())

	fmt.Println()
	fmt.Println("== qoeload 2/2: harness verdicts, profile x sync mode ==")
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
