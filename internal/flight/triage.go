package flight

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"retrolock/internal/rom"
	"retrolock/internal/vm"
)

// Offline triage: given one incident bundle (or one per site), bisect the
// exact first divergent frame by deterministic replay, identify which
// replica deviated from its own recording (the nondeterministic site), and
// localize the damage by diffing the replayed expected state against the
// state the session actually held at incident time.

// DiffKind labels one entry of a state diff.
type DiffKind string

const (
	DiffReg DiffKind = "reg"
	DiffPC  DiffKind = "pc"
	DiffRAM DiffKind = "ram"
)

// StateDiff is one disagreement between the replayed (expected) machine
// state and the recorded (actual) one.
type StateDiff struct {
	Kind DiffKind `json:"kind"`
	// Index is the register number (DiffReg) or RAM address (DiffRAM);
	// unused for DiffPC.
	Index int `json:"index"`
	// Want is the expected (clean-replay) value, Got the recorded one.
	Want uint64 `json:"want"`
	Got  uint64 `json:"got"`
}

func (d StateDiff) String() string {
	switch d.Kind {
	case DiffReg:
		return fmt.Sprintf("r%d: want %#x, got %#x", d.Index, d.Want, d.Got)
	case DiffPC:
		return fmt.Sprintf("pc: want %#x, got %#x", d.Want, d.Got)
	default:
		return fmt.Sprintf("ram[%#04x]: want %#02x, got %#02x", d.Index, d.Want, d.Got)
	}
}

// SiteAnalysis is the per-bundle replay verdict.
type SiteAnalysis struct {
	Site int `json:"site"`
	// ReplayedFrom is the frame the deterministic replay started after
	// (-1: replayed from boot; -2: replay impossible, see ReplayErr).
	ReplayedFrom int64 `json:"replayed_from"`
	// ReplayedTo is the last frame the replay executed.
	ReplayedTo int64 `json:"replayed_to"`
	// Deterministic reports whether the clean replay reproduced every
	// recorded per-frame hash. False means this site's machine deviated
	// from its own input record — the replica that broke determinism.
	Deterministic bool `json:"deterministic"`
	// DeviationFrame is the first frame whose replayed hash disagrees with
	// the recording (-1 when Deterministic).
	DeviationFrame int64 `json:"deviation_frame"`
	// Diff lists expected-vs-actual state disagreements at the incident
	// snapshot (nil when the replay matched or no final state exists).
	Diff []StateDiff `json:"diff,omitempty"`
	// DiffTruncated notes that Diff was capped.
	DiffTruncated bool `json:"diff_truncated,omitempty"`
	// ReplayErr explains why a replay could not run ("" when it did).
	ReplayErr string `json:"replay_err,omitempty"`
}

// TimelineEvent is one causally-aligned entry of the merged two-site trace
// around the divergence.
type TimelineEvent struct {
	Site  int    `json:"site"`
	Frame int64  `json:"frame"`
	AtNs  int64  `json:"at_ns"`
	Kind  string `json:"kind"`
	Arg   int64  `json:"arg"`
}

// InputLatencyRow is one frame's input-journey measurements from a bundle's
// span section, reported around the divergence frame. Durations are ns; 0
// means the journey leg never closed (endpoint unstamped or offset unknown).
type InputLatencyRow struct {
	Site  int   `json:"site"`
	Frame int64 `json:"frame"`
	// CrossNs is the end-to-end cross-site input latency: peer press to
	// local execution.
	CrossNs int64 `json:"cross_ns,omitempty"`
	// LocalNs is the local-lag latency: own press to own execution.
	LocalNs int64 `json:"local_ns,omitempty"`
	// NetNs is the one-way wire latency: peer send to local receive.
	NetNs int64 `json:"net_ns,omitempty"`
	// SkewNs is |local frame begin - remote frame begin|.
	SkewNs int64 `json:"skew_ns,omitempty"`
	// Retransmits counts ARQ retransmissions attributed to this frame.
	Retransmits int64 `json:"retransmits,omitempty"`
}

// Report is the triage outcome.
type Report struct {
	// FirstDivergentFrame is the bisected first frame on which the
	// replicas (or a replica and its own recording) disagree; -1 unknown.
	FirstDivergentFrame int64 `json:"first_divergent_frame"`
	// Method says how the frame was determined.
	Method string `json:"method"`
	// NondeterministicSite is the site whose replay deviated from its own
	// recording (-1 when no replay deviated or none could run).
	NondeterministicSite int `json:"nondeterministic_site"`
	// Sites holds one analysis per supplied bundle.
	Sites []SiteAnalysis `json:"sites"`
	// Timeline is the merged trace around the divergence, ordered by
	// (frame, timestamp) so the two sites' records align causally even
	// when their clocks do not.
	Timeline []TimelineEvent `json:"timeline,omitempty"`
	// InputLatency holds per-frame input-journey measurements around the
	// divergence, one row per site per frame, from the bundles' span
	// sections (empty when the bundles carry none or the frame is unknown).
	InputLatency []InputLatencyRow `json:"input_latency,omitempty"`
}

// timelineWindow is how many frames around the divergence the merged
// timeline retains on each side.
const timelineWindow = 30

// maxDiffEntries caps the reported state diff (a wildly corrupted RAM image
// would otherwise produce 64K lines).
const maxDiffEntries = 64

// Analyze triages one or two bundles. With two (one per site) the first
// divergent frame comes from direct per-frame hash comparison; with one, from
// the replay's deviation against its own recording, falling back to the
// embedded remote-digest log (HashInterval granularity).
func Analyze(bundles ...*Bundle) (*Report, error) {
	if len(bundles) == 0 || len(bundles) > 2 {
		return nil, fmt.Errorf("flight: Analyze needs 1 or 2 bundles, got %d", len(bundles))
	}
	r := &Report{FirstDivergentFrame: -1, NondeterministicSite: -1}

	if len(bundles) == 2 {
		if f, ok := crossBundleDivergence(bundles[0], bundles[1]); ok {
			r.FirstDivergentFrame = f
			r.Method = "cross-bundle per-frame hash comparison"
		}
	}

	for _, b := range bundles {
		sa := analyzeSite(b)
		r.Sites = append(r.Sites, sa)
		if !sa.Deterministic && sa.DeviationFrame >= 0 {
			if r.NondeterministicSite < 0 {
				r.NondeterministicSite = sa.Site
			}
			// A replay deviation pins the divergence exactly even from a
			// single bundle; prefer it over nothing, and cross-check it
			// against the two-bundle answer when both exist.
			if r.FirstDivergentFrame < 0 {
				r.FirstDivergentFrame = sa.DeviationFrame
				r.Method = "replay deviation from own recording"
			}
		}
	}

	if r.FirstDivergentFrame < 0 {
		// Last resort: the bundle's own hashes against the peer digests it
		// received — HashInterval granularity, but better than nothing.
		for _, b := range bundles {
			if f, ok := remoteDigestDivergence(b); ok && (r.FirstDivergentFrame < 0 || f < r.FirstDivergentFrame) {
				r.FirstDivergentFrame = f
				r.Method = "remote digest comparison (HashInterval granularity)"
			}
		}
	}

	r.Timeline = mergeTimelines(bundles, r.FirstDivergentFrame)
	r.InputLatency = spanLatencies(bundles, r.FirstDivergentFrame)
	return r, nil
}

// spanLatencies derives per-frame input-journey rows from the bundles' span
// sections, restricted to timelineWindow frames around the divergence.
func spanLatencies(bundles []*Bundle, around int64) []InputLatencyRow {
	if around < 0 {
		return nil
	}
	var out []InputLatencyRow
	for _, b := range bundles {
		for _, s := range b.Spans {
			if s.Frame < around-timelineWindow || s.Frame > around+timelineWindow {
				continue
			}
			row := InputLatencyRow{Site: b.Manifest.Site, Frame: s.Frame, Retransmits: s.Retransmits}
			if s.Executed != 0 {
				if s.RemotePressed != 0 {
					row.CrossNs = s.Executed - s.RemotePressed
				}
				if s.Pressed != 0 {
					row.LocalNs = s.Executed - s.Pressed
				}
				if s.RemoteExec != 0 {
					if row.SkewNs = s.Executed - s.RemoteExec; row.SkewNs < 0 {
						row.SkewNs = -row.SkewNs
					}
				}
			}
			if s.Recv != 0 && s.RemoteSend != 0 {
				row.NetNs = s.Recv - s.RemoteSend
			}
			out = append(out, row)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Frame != out[j].Frame {
			return out[i].Frame < out[j].Frame
		}
		return out[i].Site < out[j].Site
	})
	return out
}

// crossBundleDivergence compares the two bundles' per-frame hash records and
// returns the first frame present in both on which they disagree.
func crossBundleDivergence(a, b *Bundle) (int64, bool) {
	other := make(map[int64]uint64, len(b.Frames))
	for _, f := range b.Frames {
		other[f.Frame] = f.Hash
	}
	first, found := int64(-1), false
	for _, f := range a.Frames {
		if h, ok := other[f.Frame]; ok && h != f.Hash {
			if !found || f.Frame < first {
				first, found = f.Frame, true
			}
		}
	}
	return first, found
}

// remoteDigestDivergence compares a bundle's own per-frame hashes against the
// peer digests it recorded.
func remoteDigestDivergence(b *Bundle) (int64, bool) {
	own := make(map[int64]uint64, len(b.Frames))
	for _, f := range b.Frames {
		own[f.Frame] = f.Hash
	}
	first, found := int64(-1), false
	for _, rh := range b.RemoteHashes {
		if h, ok := own[rh.Frame]; ok && h != rh.Hash {
			if !found || rh.Frame < first {
				first, found = rh.Frame, true
			}
		}
	}
	return first, found
}

// analyzeSite replays one bundle from its earliest reachable checkpoint and
// checks every recorded frame hash; on deviation it diffs the replayed state
// against the bundle's incident-time snapshot.
func analyzeSite(b *Bundle) SiteAnalysis {
	sa := SiteAnalysis{
		Site:           b.Manifest.Site,
		Deterministic:  true,
		DeviationFrame: -1,
		ReplayedFrom:   -2,
	}
	if len(b.Frames) == 0 {
		sa.ReplayErr = "bundle records no frames"
		return sa
	}
	if len(b.ROM) == 0 {
		sa.ReplayErr = "bundle embeds no ROM image"
		return sa
	}
	cart, err := rom.Decode(b.ROM)
	if err != nil {
		sa.ReplayErr = fmt.Sprintf("embedded ROM: %v", err)
		return sa
	}
	console, err := cart.Boot()
	if err != nil {
		sa.ReplayErr = fmt.Sprintf("booting embedded ROM: %v", err)
		return sa
	}

	// Choose the earliest replay base whose input coverage is contiguous:
	// boot when the ring still reaches the session start, else the oldest
	// retained snapshot that the ring covers. Earlier is better — it
	// maximizes the window in which a deviation can be caught.
	lo := b.Frames[0].Frame
	hi := b.Frames[len(b.Frames)-1].Frame
	base := int64(-2)
	if lo <= int64(b.Manifest.StartFrame) {
		base = int64(b.Manifest.StartFrame) - 1 // replay from boot
	} else {
		for _, s := range b.Snapshots { // oldest first
			if s.Frame+1 >= lo && s.Frame < hi {
				if err := console.Restore(s.State); err != nil {
					sa.ReplayErr = fmt.Sprintf("restoring snapshot at frame %d: %v", s.Frame, err)
					return sa
				}
				base = s.Frame
				break
			}
		}
	}
	if base == -2 {
		sa.ReplayErr = fmt.Sprintf("no checkpoint reachable from the input window [%d, %d]", lo, hi)
		return sa
	}
	sa.ReplayedFrom = base

	inputs := make(map[int64]FrameRecord, len(b.Frames))
	for _, f := range b.Frames {
		inputs[f.Frame] = f
	}
	for f := base + 1; f <= hi; f++ {
		rec, ok := inputs[f]
		if !ok {
			sa.ReplayErr = fmt.Sprintf("input record for frame %d missing", f)
			return sa
		}
		console.StepFrame(rec.Input)
		sa.ReplayedTo = f
		if console.StateHash() != rec.Hash && sa.DeviationFrame < 0 {
			sa.Deterministic = false
			sa.DeviationFrame = f
			// Keep replaying: the diff below wants the expected state at
			// the incident snapshot's frame, not at first deviation.
		}
	}

	if !sa.Deterministic && b.Final != nil && b.Final.Frame == hi {
		actual, err := cart.Boot()
		if err == nil {
			err = actual.Restore(b.Final.State)
		}
		if err != nil {
			sa.ReplayErr = fmt.Sprintf("restoring incident snapshot: %v", err)
			return sa
		}
		sa.Diff, sa.DiffTruncated = diffConsoles(console, actual)
	}
	return sa
}

// diffConsoles compares the replayed (expected) console against the recorded
// (actual) one: registers, PC, then RAM byte-by-byte via Peek.
func diffConsoles(want, got *vm.Console) (diffs []StateDiff, truncated bool) {
	for i := 0; i < vm.NumRegs; i++ {
		if w, g := want.Reg(i), got.Reg(i); w != g {
			diffs = append(diffs, StateDiff{Kind: DiffReg, Index: i, Want: uint64(w), Got: uint64(g)})
		}
	}
	if w, g := want.PC(), got.PC(); w != g {
		diffs = append(diffs, StateDiff{Kind: DiffPC, Want: uint64(w), Got: uint64(g)})
	}
	for a := 0; a < vm.MemSize; a++ {
		if w, g := want.Peek(uint16(a)), got.Peek(uint16(a)); w != g {
			if len(diffs) >= maxDiffEntries {
				return diffs, true
			}
			diffs = append(diffs, StateDiff{Kind: DiffRAM, Index: a, Want: uint64(w), Got: uint64(g)})
		}
	}
	return diffs, false
}

// traceLine mirrors the tracer's JSONL schema.
type traceLine struct {
	AtNs  int64  `json:"at_ns"`
	Kind  string `json:"kind"`
	Site  int    `json:"site"`
	Frame int64  `json:"frame"`
	Arg   int64  `json:"arg"`
}

// mergeTimelines builds the causally-aligned two-site timeline: events from
// every bundle's embedded trace within timelineWindow frames of the
// divergence (every event when the frame is unknown is out of scope — the
// timeline stays empty then), ordered by frame first so the sites align by
// game progress, not by their unsynchronized wall clocks.
func mergeTimelines(bundles []*Bundle, around int64) []TimelineEvent {
	if around < 0 {
		return nil
	}
	var out []TimelineEvent
	for _, b := range bundles {
		sc := bufio.NewScanner(bytes.NewReader(b.Trace))
		sc.Buffer(make([]byte, 0, 64*1024), 1024*1024)
		for sc.Scan() {
			line := bytes.TrimSpace(sc.Bytes())
			if len(line) == 0 {
				continue
			}
			var e traceLine
			if json.Unmarshal(line, &e) != nil {
				continue // a damaged trace line is not worth failing triage
			}
			if e.Frame < around-timelineWindow || e.Frame > around+timelineWindow {
				if e.Kind != "incident" {
					continue
				}
			}
			out = append(out, TimelineEvent{Site: e.Site, Frame: e.Frame, AtNs: e.AtNs, Kind: e.Kind, Arg: e.Arg})
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if out[i].Frame != out[j].Frame {
			return out[i].Frame < out[j].Frame
		}
		return out[i].AtNs < out[j].AtNs
	})
	return out
}

// Format renders the report for a terminal, merged timeline included.
func (r *Report) Format(w io.Writer) {
	if r.FirstDivergentFrame >= 0 {
		fmt.Fprintf(w, "first divergent frame: %d (%s)\n", r.FirstDivergentFrame, r.Method)
	} else {
		fmt.Fprintf(w, "first divergent frame: not found (replicas agree over the recorded window)\n")
	}
	if r.NondeterministicSite >= 0 {
		fmt.Fprintf(w, "nondeterministic site: %d (its replay deviates from its own recording)\n", r.NondeterministicSite)
	}
	for _, sa := range r.Sites {
		fmt.Fprintf(w, "\nsite %d:\n", sa.Site)
		if sa.ReplayErr != "" {
			fmt.Fprintf(w, "  replay: unavailable (%s)\n", sa.ReplayErr)
			continue
		}
		from := fmt.Sprintf("checkpoint at frame %d", sa.ReplayedFrom)
		if sa.ReplayedFrom < 0 {
			from = "boot"
		}
		fmt.Fprintf(w, "  replayed from %s through frame %d\n", from, sa.ReplayedTo)
		if sa.Deterministic {
			fmt.Fprintf(w, "  deterministic: replay reproduces every recorded hash\n")
			continue
		}
		fmt.Fprintf(w, "  DEVIATES at frame %d: the machine did not follow from its inputs\n", sa.DeviationFrame)
		if len(sa.Diff) > 0 {
			fmt.Fprintf(w, "  state diff at frame %d (expected vs recorded):\n", sa.ReplayedTo)
			for _, d := range sa.Diff {
				fmt.Fprintf(w, "    %s\n", d)
			}
			if sa.DiffTruncated {
				fmt.Fprintf(w, "    ... diff truncated at %d entries\n", maxDiffEntries)
			}
		}
	}
	if len(r.Timeline) > 0 {
		fmt.Fprintf(w, "\nmerged timeline (±%d frames around the divergence):\n", timelineWindow)
		for _, e := range r.Timeline {
			fmt.Fprintf(w, "  frame %6d  site %d  %-12s arg=%-8d at=%dns\n", e.Frame, e.Site, e.Kind, e.Arg, e.AtNs)
		}
	}
	if len(r.InputLatency) > 0 {
		fmt.Fprintf(w, "\ninput latency (±%d frames around the divergence; ms, 0 = leg never closed):\n", timelineWindow)
		fmt.Fprintf(w, "  %6s  %4s  %8s  %8s  %8s  %8s  %7s\n", "frame", "site", "cross", "local", "net", "skew", "retrans")
		ms := func(ns int64) float64 { return float64(ns) / 1e6 }
		for _, row := range r.InputLatency {
			fmt.Fprintf(w, "  %6d  %4d  %8.2f  %8.2f  %8.2f  %8.2f  %7d\n",
				row.Frame, row.Site, ms(row.CrossNs), ms(row.LocalNs), ms(row.NetNs), ms(row.SkewNs), row.Retransmits)
		}
	}
}
