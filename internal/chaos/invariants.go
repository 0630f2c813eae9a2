package chaos

import (
	"fmt"
	"strings"

	"retrolock/internal/core"
	"retrolock/internal/harness"
	"retrolock/internal/transport"
)

// ringSlack pads the input-ring bound for the frames a site executes from
// its own local lag while the window is at its widest.
const ringSlack = 64

// arqDrainSlack is the tolerated residue of unacked ARQ segments after a
// clean drain. The very last keepalives a site sends before exiting can no
// longer be acknowledged by anyone (the peer left, or we leave before the
// ack's round trip completes — the classic last-message problem), so a
// handful of trailing in-flight segments is correct behaviour; a backlog
// bigger than that means retransmission failed to recover.
const arqDrainSlack = 4

// MaxRingWindow is the invariant bound on the input ring's window for a
// session with the given local lag: the sync module never buffers beyond
// pointer + 2*lag + MaxInputsPerMsg, and the retired edge trails the
// pointer by at most the unacked backlog one message can cover, so the
// high-water mark is O(lag + MaxInputsPerMsg) no matter how long the
// session runs or how long a partition lasts.
func MaxRingWindow(lag int) int {
	return 4*lag + core.MaxInputsPerMsg + ringSlack
}

// departure returns the first frame at which got differs from the oracle's
// hashes, or -1 when it never does.
func departure(got, oracle []uint64) int {
	for f := range min(len(got), len(oracle)) {
		if got[f] != oracle[f] {
			return f
		}
	}
	return -1
}

// Verify asserts the chaos invariant suite over a completed run and returns
// every violation joined into one error (nil when the run is clean):
//
//   - consistency: both sites produced the same state hash at every matched
//     frame and finished all requested frames
//   - the oracle: every frame's hash on each site is the one harness.Expect
//     computes from the input script alone; with Spec.Corrupt, the
//     corrupted site first departs from it at exactly the corruption frame
//     and the other site never does
//   - liveness: every WantProgress phase was entered and executed frames on
//     both sites
//   - bounded memory: the input ring window stays under MaxRingWindow and,
//     in ARQ mode, the unacked / out-of-order buffers never exceed the
//     sender window, in every phase
//   - ack sanity: every partition direction lost all its traffic (the
//     scheduler really cut the link), each site ended with all inputs
//     acknowledged, and in ARQ mode with at most a few trailing in-flight
//     keepalives unacknowledged
func (r *Report) Verify() error {
	var errs []string
	fail := func(format string, args ...interface{}) {
		errs = append(errs, fmt.Sprintf(format, args...))
	}

	// Consistency.
	if !r.Converged {
		fail("replicas diverged at frame %d (hashes %x vs %x)",
			r.MismatchFrame, r.FinalHashes[0], r.FinalHashes[1])
	}
	for site := 0; site < 2; site++ {
		if r.Frames[site] != r.Spec.Frames {
			fail("site %d executed %d/%d frames", site, r.Frames[site], r.Spec.Frames)
		}
	}
	oracle := harness.Expect(r.Spec.Game, r.Spec.Seed, r.Spec.Frames, r.Lag)
	for site, got := range r.Hashes {
		want := -1
		if c := r.Spec.Corrupt; c != nil && c.Site == site && c.Frame < len(got) {
			want = c.Frame
		}
		switch f := departure(got, oracle); {
		case f == want:
		case want < 0:
			fail("site %d: hash %x at frame %d, the oracle's is %x", site, got[f], f, oracle[f])
		default:
			fail("site %d: corrupted at frame %d, first departs from the oracle at %d", site, want, f)
		}
	}

	// Per-phase liveness and memory bounds.
	ringBound := MaxRingWindow(r.Lag)
	for i, pr := range r.Phases {
		spec := r.Spec.Phases[i]
		if spec.WantProgress {
			if !pr.Entered {
				fail("phase %q promises progress but was never entered", pr.Name)
				continue
			}
			for site := 0; site < 2; site++ {
				if pr.Sites[site].Frames == 0 {
					fail("phase %q: site %d executed no frames", pr.Name, site)
				}
			}
		}
		if !pr.Entered {
			continue
		}
		for site := 0; site < 2; site++ {
			sp := pr.Sites[site]
			if sp.BufPeak > ringBound {
				fail("phase %q: site %d input ring peaked at %d frames (bound %d)",
					pr.Name, site, sp.BufPeak, ringBound)
			}
			if r.Spec.ARQ {
				if sp.Unacked > transport.DefaultSenderWindow {
					fail("phase %q: site %d ARQ unacked %d exceeds sender window %d",
						pr.Name, site, sp.Unacked, transport.DefaultSenderWindow)
				}
				if sp.OOO >= transport.DefaultSenderWindow {
					fail("phase %q: site %d ARQ ooo buffer %d reached the receive horizon %d",
						pr.Name, site, sp.OOO, transport.DefaultSenderWindow)
				}
			}
		}
		// The scheduler must actually have cut partitioned directions.
		if spec.PartitionAB && pr.AB.Dropped != pr.AB.Planned {
			fail("phase %q: AB partition leaked %d/%d packets",
				pr.Name, pr.AB.Planned-pr.AB.Dropped, pr.AB.Planned)
		}
		if spec.PartitionBA && pr.BA.Dropped != pr.BA.Planned {
			fail("phase %q: BA partition leaked %d/%d packets",
				pr.Name, pr.BA.Planned-pr.BA.Dropped, pr.BA.Planned)
		}
	}

	// Ack / retransmission sanity at the end of the run.
	for site := 0; site < 2; site++ {
		if !r.AllAcked[site] {
			fail("site %d finished with unacknowledged inputs", site)
		}
		if r.Spec.ARQ && r.ARQ[site].Unacked > arqDrainSlack {
			fail("site %d ARQ finished with %d unacked segments (> %d trailing keepalives)",
				site, r.ARQ[site].Unacked, arqDrainSlack)
		}
		if r.ARQ[site].FarDropped != 0 {
			// Checksums discard corrupted segments below the ARQ layer, so
			// a well-behaved peer can never trip the receive horizon.
			fail("site %d ARQ dropped %d far-future segments from a correct peer",
				site, r.ARQ[site].FarDropped)
		}
	}

	if len(errs) == 0 {
		return nil
	}
	return fmt.Errorf("chaos %s (seed %d): %d invariant violations:\n  %s",
		r.Spec.Name, r.Spec.Seed, len(errs), strings.Join(errs, "\n  "))
}
