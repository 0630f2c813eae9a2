package chaos_test

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"testing"

	"retrolock/internal/chaos"
	"retrolock/internal/obs"
)

// The goldens below pin what Run produces — the whole report and the black
// boxes' bytes — as hard-coded digests. They are the safety net for
// refactors of how a run wires its sites: such a change must leave every
// digest as it is.

// reportDigest hashes a report's outputs: every field but the scenario
// echoed back in Spec and the live tracer and flight handles (see
// stripLive), with each journal reduced to its four histograms.
func reportDigest(t *testing.T, r *chaos.Report) uint64 {
	t.Helper()
	enc, err := json.Marshal([]any{r.Lag, r.Elapsed, r.Phases, r.Frames, r.FinalHashes,
		r.Converged, r.MismatchFrame, r.AllAcked, r.Sync, r.ARQ, r.ChecksumDiscarded,
		r.Health, r.HealthFinal, r.HealthWindow, r.FlightBundles})
	if err != nil {
		t.Fatal(err)
	}
	h := fnv.New64a()
	h.Write(enc)
	for _, j := range r.Journals {
		for _, hist := range []*obs.Histogram{j.Cross, j.Local, j.Net, j.Skew} {
			fmt.Fprintln(h, hist.Count(), hist.Sum(), hist.Buckets())
		}
	}
	return h.Sum64()
}

// TestGoldenReportDigest pins the reports of the default soak and of its
// ARQ variant.
func TestGoldenReportDigest(t *testing.T) {
	for _, tc := range []struct {
		sc   chaos.Scenario
		want uint64
	}{
		{chaos.Soak(99, 2000), 0x3d0f5360d23b9a54},
		{chaos.ARQSoak(3, 2000), 0x840fc7aab87b9f60},
	} {
		r, err := chaos.Run(tc.sc)
		if err != nil {
			t.Fatalf("%s: %v", tc.sc.Name, err)
		}
		if got := reportDigest(t, r); got != tc.want {
			t.Errorf("%s seed %d: report digest %#x, want %#x", tc.sc.Name, tc.sc.Seed, got, tc.want)
		}
	}
}

// TestGoldenDumpFlight pins the RKFB bytes Report.DumpFlight writes after a
// clean run.
func TestGoldenDumpFlight(t *testing.T) {
	r, err := chaos.Run(chaos.Scenario{Name: "golden dump", Seed: 3, Frames: 300})
	if err != nil {
		t.Fatal(err)
	}
	paths, err := r.DumpFlight(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{0x6ea376c53f21100b, 0x2c932e1abaf046cf}
	if len(paths) != len(want) {
		t.Fatalf("DumpFlight wrote %d bundles, want %d", len(paths), len(want))
	}
	for i, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		h := fnv.New64a()
		h.Write(data)
		if h.Sum64() != want[i] {
			t.Errorf("%s: digest %#x, want %#x", p, h.Sum64(), want[i])
		}
	}
}
