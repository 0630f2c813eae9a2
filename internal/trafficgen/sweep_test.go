package trafficgen

import (
	"fmt"

	"retrolock/internal/netem"
	"retrolock/internal/obs"
)

// sweep executes base once per profile (every named profile when none is
// given, in sorted order), a fresh emulated world each time so profiles
// cannot bleed into each other, and renders the per-profile QoE verdict
// table `make qoe` compares. Deterministic: same config, same bytes.
func sweep(base RunConfig, profiles ...string) ([]*Result, *obs.Table, error) {
	if len(profiles) == 0 {
		profiles = netem.Profiles()
	}
	results := make([]*Result, 0, len(profiles))
	for _, p := range profiles {
		cfg := base
		cfg.Profile = p
		r, err := Run(cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("trafficgen: profile %q: %w", p, err)
		}
		results = append(results, r)
	}
	return results, verdictTable(results), nil
}

// verdictTable renders per-profile QoE verdicts. Every figure is derived
// with integer arithmetic from histogram bucket bounds and counters, so the
// rendered bytes are reproducible and safe to check in as a CI baseline.
func verdictTable(rs []*Result) *obs.Table {
	t := &obs.Table{Header: []string{
		"profile", "sessions", "healthy", "degraded", "infeasible",
		"delivery", "lat-p50", "lat-p95", "lat-p99",
	}}
	for _, r := range rs {
		t.AddRow(
			r.Profile,
			fmt.Sprintf("%d", r.Sessions),
			permille(r.Healthy, r.Sessions),
			permille(r.Degraded, r.Sessions),
			permille(r.Infeasible, r.Sessions),
			basisPoints(deliveryBp(r)),
			latencyMs(r.Latency, 0.50),
			latencyMs(r.Latency, 0.95),
			latencyMs(r.Latency, 0.99),
		)
	}
	return t
}

// deliveryBp is r's delivery rate in basis points (9997 = 99.97%).
func deliveryBp(r *Result) int64 {
	if r.Sent == 0 {
		return 10000
	}
	return r.Recv * 10000 / r.Sent
}

// permille renders n/total as a percentage with one decimal ("98.4%").
func permille(n, total int) string {
	if total == 0 {
		return "-"
	}
	v := n * 1000 / total
	return fmt.Sprintf("%d.%d%%", v/10, v%10)
}

// basisPoints renders basis points as a percentage with two decimals
// ("99.97%").
func basisPoints(bp int64) string {
	return fmt.Sprintf("%d.%02d%%", bp/100, bp%100)
}

// latencyMs renders a histogram quantile's bucket upper bound in ms with one
// decimal ("33.5ms"). The bound, not an interpolation: interpolation would
// reintroduce float formatting into a golden file.
func latencyMs(h *obs.Histogram, q float64) string {
	if h == nil || h.Count() == 0 {
		return "-"
	}
	tenths := h.Quantile(q) / 100_000 // ns -> tenths of ms
	return fmt.Sprintf("%d.%dms", tenths/10, tenths%10)
}
