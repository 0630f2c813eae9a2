package chaos_test

import (
	"flag"
	"reflect"
	"strings"
	"testing"
	"time"

	"retrolock/internal/chaos"
	"retrolock/internal/flight"
)

// stripLive drops the live flight-recorder handles before a determinism
// comparison: they hold registry/tracer state (function values, mutexes)
// that never compares equal across runs. Everything replayable — link
// stats, sync deltas, hashes, bundle paths — stays in the comparison.
func stripLive(r *chaos.Report) *chaos.Report {
	r.Flight = [2]*flight.Recorder{}
	return r
}

// Soak knobs: `make chaos` sweeps more seeds than the default test run.
//
//	go test ./internal/chaos/ -chaos.seeds 5 -chaos.frames 10000
var (
	soakSeeds  = flag.Int("chaos.seeds", 1, "seeds per scenario in the soak sweep")
	soakFrames = flag.Int("chaos.frames", 10000, "frames per soak run")
)

func soakLen(t *testing.T) int {
	t.Helper()
	if testing.Short() {
		return 1500
	}
	return *soakFrames
}

// TestSoakScenarios drives every default scenario through its full fault
// schedule and asserts the invariant suite, plus spot checks that each fault
// phase actually did what its name claims.
func TestSoakScenarios(t *testing.T) {
	frames := soakLen(t)
	for _, sc := range []chaos.Scenario{
		chaos.Soak(1, frames),
		chaos.SkewSoak(2, frames),
		chaos.ARQSoak(3, frames),
	} {
		sc := sc
		t.Run(sc.Name, func(t *testing.T) {
			r, err := chaos.Run(sc)
			if err != nil {
				t.Fatalf("Run: %v", err)
			}
			if err := r.Verify(); err != nil {
				t.Fatal(err)
			}
			checkPhaseEffects(t, r)
		})
	}
}

// checkPhaseEffects asserts each fault phase produced its signature traffic
// pattern, so a scheduler regression cannot silently turn the soak into a
// clean-link run that trivially passes.
func checkPhaseEffects(t *testing.T, r *chaos.Report) {
	t.Helper()
	for i, pr := range r.Phases {
		if !pr.Entered {
			t.Errorf("phase %q never entered (run too short for the schedule)", pr.Name)
			continue
		}
		spec := r.Spec.Phases[i]
		ab := spec.AB
		switch {
		case spec.PartitionAB:
			if pr.AB.Planned == 0 {
				t.Errorf("phase %q: no traffic offered to the partitioned direction", pr.Name)
			}
		case ab != nil && ab.Loss > 0:
			if pr.AB.Dropped == 0 {
				t.Errorf("phase %q: lossy link dropped nothing (%d planned)", pr.Name, pr.AB.Planned)
			}
		case ab != nil && ab.Duplicate > 0:
			if pr.AB.Duplicated == 0 || pr.AB.Reordered == 0 {
				t.Errorf("phase %q: dup/reorder storm produced dup=%d reorder=%d",
					pr.Name, pr.AB.Duplicated, pr.AB.Reordered)
			}
		case ab != nil && ab.Corrupt > 0:
			if pr.AB.Corrupted == 0 {
				t.Errorf("phase %q: corruption phase flipped no bits", pr.Name)
			}
			if pr.Sites[1].ChecksumDiscarded == 0 {
				t.Errorf("phase %q: receiver discarded no corrupted datagrams", pr.Name)
			}
		}
		if spec.ClockRate != 0 && spec.WantProgress {
			// Skewed phases must still make progress on both sites — that
			// is the point; Verify already asserts it. Nothing extra here.
			continue
		}
	}
	// The healed tail must carry the bulk of a long run.
	last := r.Phases[len(r.Phases)-1]
	if last.Sites[0].Frames == 0 || last.Sites[1].Frames == 0 {
		t.Errorf("heal phase executed no frames: %+v", last.Sites)
	}
}

// TestSoakSeedSweep is the soak mode: every scenario across several seeds,
// each run twice to prove the per-phase stats are bit-identical on re-run.
func TestSoakSeedSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("seed sweep is the long soak; run make chaos")
	}
	frames := soakLen(t)
	for seed := 0; seed < *soakSeeds; seed++ {
		base := int64(seed)*1000 + 7
		for _, sc := range []chaos.Scenario{
			chaos.Soak(base, frames),
			chaos.ARQSoak(base+1, frames),
		} {
			sc := sc
			r1, err := chaos.Run(sc)
			if err != nil {
				t.Fatalf("%s seed %d: %v", sc.Name, sc.Seed, err)
			}
			if err := r1.Verify(); err != nil {
				t.Error(err)
			}
			r2, err := chaos.Run(sc)
			if err != nil {
				t.Fatalf("%s seed %d rerun: %v", sc.Name, sc.Seed, err)
			}
			if !reflect.DeepEqual(stripLive(r1), stripLive(r2)) {
				t.Errorf("%s seed %d: re-run produced a different report\nfirst:  %+v\nsecond: %+v",
					sc.Name, sc.Seed, r1, r2)
			}
		}
	}
}

// TestRunDeterministic re-runs one scenario and requires the entire report —
// per-phase link stats, sync deltas, frame attribution, final hashes — to be
// bit-identical.
func TestRunDeterministic(t *testing.T) {
	sc := chaos.Soak(99, 2000)
	r1, err := chaos.Run(sc)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	r2, err := chaos.Run(sc)
	if err != nil {
		t.Fatalf("second run: %v", err)
	}
	if !reflect.DeepEqual(stripLive(r1), stripLive(r2)) {
		t.Fatalf("reports differ across identical runs\nfirst:  %+v\nsecond: %+v", r1, r2)
	}
	if err := r1.Verify(); err != nil {
		t.Error(err)
	}
}

// TestPartitionOutlastingTimeoutFailsLoudly pins the fail-loudly contract:
// a partition longer than WaitTimeout must error out, not hang or pass.
func TestPartitionOutlastingTimeoutFailsLoudly(t *testing.T) {
	sc := chaos.Soak(5, 6000)
	sc.WaitTimeout = 3 * time.Second
	// Stretch the full partition far past the timeout.
	for i := range sc.Phases {
		if sc.Phases[i].Name == "full-partition" {
			sc.Phases[i].Duration = 10 * time.Second
		}
	}
	if _, err := chaos.Run(sc); err == nil {
		t.Fatal("run with a partition outlasting WaitTimeout succeeded; want a loud failure")
	}
}

// TestOracleLocatesCorruption drives the oracle invariant with a corruption
// late enough that no hash exchange catches it, so the run completes. Verify
// must report the divergence and no oracle violation; told the wrong frame,
// or no corruption at all, it must name the frame where site 1 really left
// the oracle.
func TestOracleLocatesCorruption(t *testing.T) {
	sc := chaos.Scenario{
		Name:    "late-corruption",
		Seed:    5,
		Frames:  300,
		Corrupt: &chaos.Corruption{Site: 1, Frame: 290, Addr: 0x7ABC, XOR: 0x5A},
	}
	r, err := chaos.Run(sc)
	if err != nil {
		t.Fatal(err)
	}
	verify := func() string {
		err := r.Verify()
		if err == nil {
			t.Fatal("Verify passed a corrupted run")
		}
		return err.Error()
	}
	if got := verify(); !strings.Contains(got, "1 invariant violations") ||
		!strings.Contains(got, "replicas diverged at frame 290") {
		t.Errorf("want only the divergence at frame 290, got:\n%s", got)
	}
	r.Spec.Corrupt = &chaos.Corruption{Site: 1, Frame: 289}
	if got := verify(); !strings.Contains(got, "site 1: corrupted at frame 289, first departs from the oracle at 290") {
		t.Errorf("a misplaced corruption frame went unnoticed:\n%s", got)
	}
	r.Spec.Corrupt = nil
	if got := verify(); !strings.Contains(got, "site 1: hash") || !strings.Contains(got, "at frame 290, the oracle's is") ||
		strings.Contains(got, "site 0:") {
		t.Errorf("want site 1 alone off the oracle at frame 290, got:\n%s", got)
	}
}
