package trafficgen

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"retrolock/internal/capture"
	"retrolock/internal/netem"
	"retrolock/internal/relay"
)

var (
	qoeUpdate   = flag.Bool("qoe.update", false, "rewrite testdata/qoe_baseline.txt from this run")
	qoeSessions = flag.Int("qoe.sessions", 256, "modeled sessions in the determinism re-run test")
)

// baselineSweep is the pinned configuration behind testdata/qoe_baseline.txt
// and the `make qoe` CI gate: ≥1k modeled sessions swept over every named
// profile, with think-time and churn active. Change it only together with
// the baseline file.
func baselineSweep() RunConfig {
	return RunConfig{
		Model: Model{
			Sessions:      1024,
			Drivers:       16,
			InputHz:       60,
			CadenceJitter: 0.2,
			JoinSpread:    250 * time.Millisecond,
			Think:         ThinkModel{Every: 2 * time.Second, For: 300 * time.Millisecond},
			Churn:         ChurnModel{LeaveEvery: 5 * time.Second, DownFor: 500 * time.Millisecond},
			Seed:          7,
		},
		Shards:  16,
		Warmup:  600 * time.Millisecond,
		Measure: 1500 * time.Millisecond,
		Drain:   400 * time.Millisecond,
	}
}

// TestQoESweepMatchesBaseline is the CI QoE gate: the virtual-time sweep
// over every named profile must render the exact verdict table checked in at
// testdata/qoe_baseline.txt. A diff means a behavior change somewhere in the
// relay/netem/simnet stack — rerun with -qoe.update and review the new table
// like any golden change. On failure the table (and, when RETROLOCK_QOE_DIR
// is set, capture artifacts) is written out for CI upload.
func TestQoESweepMatchesBaseline(t *testing.T) {
	results, table, err := sweep(baselineSweep())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		if r.LeakErrs != 0 || r.IntegrityErrs != 0 || r.MiswireErrs != 0 {
			t.Errorf("%s: relay correctness errors: leak=%d integrity=%d miswire=%d",
				r.Profile, r.LeakErrs, r.IntegrityErrs, r.MiswireErrs)
		}
		if r.Sent == 0 || r.Recv == 0 {
			t.Errorf("%s: sweep moved no traffic (sent=%d recv=%d)", r.Profile, r.Sent, r.Recv)
		}
	}
	got := table.String()

	golden := filepath.Join("testdata", "qoe_baseline.txt")
	if *qoeUpdate {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("updated %s:\n%s", golden, got)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing QoE baseline (run with -qoe.update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("QoE verdict table diverged from baseline.\ngot:\n%s\nwant:\n%s\n(rerun with -qoe.update if the change is intended)", got, want)
		writeFailureArtifacts(t, got, string(want))
	}
}

// writeFailureArtifacts drops the diverging tables plus a small RKCP capture
// pair (client-side and relay-side view of one wifi run) into
// $RETROLOCK_QOE_DIR so the CI job can upload them.
func writeFailureArtifacts(t *testing.T, got, want string) {
	dir := os.Getenv("RETROLOCK_QOE_DIR")
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("qoe artifacts: %v", err)
		return
	}
	_ = os.WriteFile(filepath.Join(dir, "qoe_verdicts_got.txt"), []byte(got), 0o644)
	_ = os.WriteFile(filepath.Join(dir, "qoe_verdicts_want.txt"), []byte(want), 0o644)
	client := capture.NewRecorder(4096, 1<<20)
	relayTap := capture.NewRecorder(4096, 1<<20)
	r, err := Run(RunConfig{
		Model:    Model{Sessions: 32, Drivers: 4, Seed: 7},
		Profile:  "wifi",
		Measure:  500 * time.Millisecond,
		Capture:  client,
		relayTap: relayTap,
	})
	if err != nil {
		t.Logf("qoe artifacts: capture run: %v", err)
		return
	}
	fwd, rev, _ := netem.Profile("wifi", 7)
	meta := capture.Meta{
		Game: "trafficgen", Profile: r.Profile, InputHz: 60,
		Fwd: &fwd, Rev: &rev, Notes: "QoE baseline failure artifact",
	}
	_ = os.WriteFile(filepath.Join(dir, "qoe_client.rkcp"), client.Snapshot(meta).Encode(), 0o644)
	_ = os.WriteFile(filepath.Join(dir, "qoe_relay.rkcp"), relayTap.Snapshot(meta).Encode(), 0o644)
	t.Logf("qoe artifacts written to %s", dir)
}

// TestQoESweepDeterministicRerun runs the same (smaller) sweep twice in one
// process and requires bit-identical verdict tables, aggregate histograms
// and counters — the property that makes the golden baseline meaningful.
func TestQoESweepDeterministicRerun(t *testing.T) {
	cfg := RunConfig{
		Model: Model{
			Sessions: *qoeSessions,
			Drivers:  8,
			Think:    ThinkModel{Every: time.Second, For: 200 * time.Millisecond},
			Churn:    ChurnModel{LeaveEvery: 2 * time.Second, DownFor: 300 * time.Millisecond},
			Seed:     11,
		},
		Shards:  8,
		Warmup:  400 * time.Millisecond,
		Measure: 800 * time.Millisecond,
		Drain:   300 * time.Millisecond,
	}
	profiles := []string{"wifi", "transcontinental"}
	r1, t1, err := sweep(cfg, profiles...)
	if err != nil {
		t.Fatal(err)
	}
	r2, t2, err := sweep(cfg, profiles...)
	if err != nil {
		t.Fatal(err)
	}
	if t1.String() != t2.String() {
		t.Errorf("verdict tables differ across reruns:\nfirst:\n%s\nsecond:\n%s", t1.String(), t2.String())
	}
	for i := range r1 {
		a, b := r1[i], r2[i]
		if a.Sent != b.Sent || a.Recv != b.Recv ||
			a.Healthy != b.Healthy || a.Degraded != b.Degraded || a.Infeasible != b.Infeasible {
			t.Errorf("%s: run figures differ: %+v vs %+v", a.Profile, summary(a), summary(b))
		}
		if a.Latency.Buckets() != b.Latency.Buckets() {
			t.Errorf("%s: latency histograms differ across reruns", a.Profile)
		}
	}
}

func summary(r *Result) map[string]int64 {
	return map[string]int64{
		"sent": r.Sent, "recv": r.Recv,
		"healthy": int64(r.Healthy), "degraded": int64(r.Degraded), "infeasible": int64(r.Infeasible),
	}
}

// TestQoEVerdictsOrderByProfile checks the sweep reproduces the paper's
// qualitative result: QoE strictly worsens as the access link degrades from
// wifi through lte to transcontinental, with wifi mostly healthy and
// transcontinental mostly infeasible through a relay.
func TestQoEVerdictsOrderByProfile(t *testing.T) {
	results, _, err := sweep(RunConfig{
		Model:   Model{Sessions: 96, Drivers: 8, Seed: 3},
		Shards:  8,
		Warmup:  400 * time.Millisecond,
		Measure: 800 * time.Millisecond,
	}, "wifi", "lte", "transcontinental")
	if err != nil {
		t.Fatal(err)
	}
	wifi, lte, tc := results[0], results[1], results[2]
	if wifi.Healthy < wifi.Sessions*9/10 {
		t.Errorf("wifi: only %d/%d healthy", wifi.Healthy, wifi.Sessions)
	}
	if lte.Healthy >= wifi.Healthy && lte.Sessions == wifi.Sessions {
		t.Errorf("lte (%d healthy) should be worse than wifi (%d healthy)", lte.Healthy, wifi.Healthy)
	}
	if tc.Infeasible < tc.Sessions*9/10 {
		t.Errorf("transcontinental: only %d/%d infeasible, want ~all (relayed path past the cliff)", tc.Infeasible, tc.Sessions)
	}
}

// TestRelayViewRepeats runs the same configuration twice in one process with
// a relay tap: the relay is stopped inside the world, so its last poll lands
// at the same virtual instant each time, and the relay-side capture, the
// daemon's counters and the run's virtual duration all repeat exactly.
func TestRelayViewRepeats(t *testing.T) {
	run := func() (tap []byte, counters string, elapsed time.Duration) {
		rec := capture.NewRecorder(1<<17, 1<<24)
		res, err := Run(RunConfig{
			Model:    Model{Sessions: 32, Drivers: 4, Seed: 13},
			Profile:  "wifi",
			Shards:   2,
			Warmup:   100 * time.Millisecond,
			Measure:  300 * time.Millisecond,
			Drain:    100 * time.Millisecond,
			relayTap: rec,
		})
		if err != nil {
			t.Fatal(err)
		}
		if dropped := rec.Snapshot(capture.Meta{}).Meta.Dropped; dropped != 0 || rec.Len() == 0 {
			t.Fatalf("relay tap holds %d records, dropped %d", rec.Len(), dropped)
		}
		var b strings.Builder
		res.Registry.VisitSeries(func(key, _ string, read func() float64) {
			if strings.HasPrefix(key, "retrolock_relay_") {
				fmt.Fprintf(&b, "%s %v\n", key, read())
			}
		})
		if !strings.Contains(b.String(), relay.MetricForwarded) {
			t.Fatalf("run registry carries no relay counters:\n%s", b.String())
		}
		return rec.Snapshot(capture.Meta{Game: "trafficgen", Profile: "wifi"}).Encode(), b.String(), res.Elapsed
	}
	tapA, ctrA, elA := run()
	tapB, ctrB, elB := run()
	if !bytes.Equal(tapA, tapB) {
		t.Errorf("relay captures differ across runs (%d vs %d bytes)", len(tapA), len(tapB))
	}
	if ctrA != ctrB {
		t.Errorf("relay counters differ across runs:\n%s\nvs:\n%s", ctrA, ctrB)
	}
	if elA != elB {
		t.Errorf("run ended at %v, then at %v of virtual time", elA, elB)
	}
}
