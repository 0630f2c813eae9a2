package harness

import (
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"strconv"
	"testing"
	"time"

	"retrolock/internal/capture"
	"retrolock/internal/rom/games"
)

// The goldens below pin what Run produces — final machine states, the wire
// capture, and every series in the run's registry — as hard-coded digests.
// They are the safety net for refactors of how a run wires its sites: such a
// change must leave every digest as it is.

// TestGoldenFinalHashes pins both players' final state hash for every
// shipped game (run checks each against the oracle too). The table must
// name exactly the catalog's games, so a removed game's entry cannot linger.
func TestGoldenFinalHashes(t *testing.T) {
	want := map[string]uint64{
		"duel":  0xb1c443790e9d9108,
		"pong":  0xc938b1d048af2933,
		"tanks": 0xdddd164d953340b1,
	}
	pinned := make([]string, 0, len(want))
	for game := range want {
		pinned = append(pinned, game)
	}
	sort.Strings(pinned)
	if names := games.Names(); !slices.Equal(pinned, names) {
		t.Fatalf("the table pins %v, the catalog ships %v", pinned, names)
	}
	for _, game := range games.Names() {
		res := run(t, Config{RTT: 60 * time.Millisecond, Frames: 300, Seed: 21, Game: game})
		for site, s := range res.Sites {
			if s.FinalHash != want[game] {
				t.Errorf("%s site %d: final hash %#x, want %#x", game, site, s.FinalHash, want[game])
			}
		}
	}
}

// TestGoldenCaptureDigest pins the bytes of TestGoldenCaptureDeterministic's
// RKCP capture.
func TestGoldenCaptureDigest(t *testing.T) {
	rec := capture.NewRecorder(1<<16, 1<<22)
	cfg := Config{RTT: 40 * time.Millisecond, Jitter: 3 * time.Millisecond, Loss: 0.02,
		Frames: 240, ARQ: true, Seed: 5, tap: rec}
	run(t, cfg)
	h := fnv.New64a()
	h.Write(rec.Snapshot(capture.Meta{Game: cfg.Game, Notes: "golden capture determinism"}).Encode())
	if got, want := h.Sum64(), uint64(0x6fb583b1591ec3be); got != want {
		t.Errorf("capture digest %#x, want %#x", got, want)
	}
}

// TestGoldenRegistryDigest pins every series name, label set and final
// value of the run's registry (the surface bench/ and cmd/experiment read
// back) for a plain run, an ARQ run over a lossy link, a run with
// observers and a rollback run.
func TestGoldenRegistryDigest(t *testing.T) {
	for _, tc := range []struct {
		name   string
		cfg    Config
		series int
		digest uint64
	}{
		{"plain", Config{RTT: 40 * time.Millisecond, Frames: 300, Seed: 1}, 72, 0x3d7e13927a05cea4},
		{"arq-loss", Config{RTT: 60 * time.Millisecond, Loss: 0.05, ARQ: true, Frames: 300, Seed: 7}, 82, 0x70a4714be60c23e},
		{"observers", Config{RTT: 50 * time.Millisecond, Observers: 2, Frames: 300, Seed: 4}, 130, 0x2bd48459693e4dbc},
		{"rollback", Config{RTT: 80 * time.Millisecond, Rollback: true, Frames: 300, Seed: 11}, 64, 0xcf257362f20ae52d},
	} {
		snap := run(t, tc.cfg).Registry.Snapshot()
		lines := make([]string, 0, len(snap))
		for k, v := range snap {
			lines = append(lines, k+"="+strconv.FormatFloat(v, 'g', -1, 64))
		}
		sort.Strings(lines)
		h := fnv.New64a()
		for _, l := range lines {
			fmt.Fprintln(h, l)
		}
		if len(lines) != tc.series || h.Sum64() != tc.digest {
			t.Errorf("%s: %d series, digest %#x; want %d, %#x", tc.name, len(lines), h.Sum64(), tc.series, tc.digest)
		}
	}
}
