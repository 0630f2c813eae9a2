package flight_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"retrolock/internal/core"
	"retrolock/internal/flight"
	"retrolock/internal/rom/games"
	"retrolock/internal/span"
	"retrolock/internal/vm"
)

// testConfig is the session configuration the unit tests stamp into bundles.
func testConfig() core.Config {
	return core.Config{NumPlayers: 2, BufFrame: 6, CFPS: 60, HashInterval: 60}
}

// testInput derives a deterministic per-frame input word.
func testInput(f int) uint16 { return uint16(uint32(f) * 2654435761) }

// recordRun boots a fresh console, steps it for frames 0..last (poking
// pokeAddr with pokeXOR just before frame pokeFrame when pokeXOR != 0, the
// same semantics the chaos harness uses) and feeds every frame into a
// recorder built from opts.
func recordRun(t testing.TB, opts flight.Options, last, pokeFrame int, pokeAddr uint16, pokeXOR byte) (*flight.Recorder, *vm.Console) {
	t.Helper()
	game := games.MustLoad("pong")
	console, err := game.Boot()
	if err != nil {
		t.Fatal(err)
	}
	opts.Game = "pong"
	opts.ROM = game.Encode()
	opts.Config = testConfig()
	rec := flight.NewRecorder(console, opts)
	for f := 0; f <= last; f++ {
		if pokeXOR != 0 && f == pokeFrame {
			console.Poke(pokeAddr, console.Peek(pokeAddr)^pokeXOR)
		}
		console.StepFrame(testInput(f))
		rec.RecordFrame(f, testInput(f), console.StateHash(), 0)
	}
	return rec, console
}

func TestBundleRoundTrip(t *testing.T) {
	b := &flight.Bundle{
		Manifest: flight.Manifest{
			Version: flight.BundleVersion, Site: 1, Kind: "desync", KindCode: 1,
			Frame: 541, Cause: "frame 540: replicas diverged",
			Game: "pong", ROMHash: 0xDEADBEEF,
			NumPlayers: 2, BufFrame: 6, CFPS: 60, HashInterval: 60, StartFrame: 0,
		},
		ROM: []byte{1, 2, 3, 4},
		Frames: []flight.FrameRecord{
			{Frame: 539, Input: 0x1234, Wait: 3 * time.Millisecond, Hash: 7},
			{Frame: 540, Input: 0xFFFF, Wait: 0, Hash: 8},
		},
		Snapshots: []flight.StateSnapshot{
			{Frame: 300, State: []byte{9, 9}},
			{Frame: 600, State: []byte{7}},
		},
		Final:        &flight.StateSnapshot{Frame: 540, State: []byte{5}},
		RemoteHashes: []flight.RemoteHash{{Site: 0, Frame: 540, Hash: 9}},
		Trace:        []byte(`{"kind":"frame"}` + "\n"),
		Metrics:      []byte(`{"retrolock_desync_total":1}`),
		Spans: []span.Span{
			{Frame: 539, Pressed: 1, Sent: 2, Executed: 100, RemotePressed: 50, Retransmits: 1},
			{Frame: 540, Pressed: 3, Executed: 120, RemoteExec: 118},
		},
	}
	got, err := flight.Decode(b.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, b) {
		t.Fatalf("round trip changed the bundle:\n got %+v\nwant %+v", got, b)
	}
}

func TestDecodeRejectsDamage(t *testing.T) {
	b := &flight.Bundle{
		Manifest: flight.Manifest{Version: flight.BundleVersion, Site: 0, Kind: "manual"},
		Frames:   []flight.FrameRecord{{Frame: 1, Hash: 2}},
		ROM:      []byte{1, 2, 3},
	}
	good := b.Encode()
	if _, err := flight.Decode(good); err != nil {
		t.Fatalf("pristine bundle rejected: %v", err)
	}
	// Every truncation must fail cleanly (the CRC trailer is gone or the
	// sections are cut short), never panic.
	for n := 0; n < len(good); n++ {
		if _, err := flight.Decode(good[:n]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", n)
		}
	}
	// Any flipped byte must trip the checksum.
	for i := 0; i < len(good); i += 7 {
		bad := append([]byte(nil), good...)
		bad[i] ^= 0x40
		if _, err := flight.Decode(bad); err == nil {
			t.Fatalf("corruption at byte %d accepted", i)
		}
	}
}

func TestRecorderWindowsAndIncident(t *testing.T) {
	dir := t.TempDir()
	rec, _ := recordRun(t, flight.Options{
		Site: 1, InputWindow: 8, SnapEvery: 4, Snapshots: 2, RemoteWindow: 4, Dir: dir,
	}, 20, 0, 0, 0)
	for f := 0; f < 10; f++ {
		rec.RecordRemoteHash(0, f, uint64(f)*3)
	}
	if rec.Bundle() != nil {
		t.Fatal("recorder fired before any incident")
	}
	rec.Incident(core.IncidentDesync, fmt.Errorf("synthetic divergence"))
	if rec.Bundle() == nil {
		t.Fatal("Incident did not fire the recorder")
	}

	b, err := flight.Decode(rec.Bundle())
	if err != nil {
		t.Fatal(err)
	}
	if b.Manifest.Kind != "desync" || b.Manifest.KindCode != int(core.IncidentDesync) {
		t.Errorf("manifest kind = %q/%d, want desync", b.Manifest.Kind, b.Manifest.KindCode)
	}
	if b.Manifest.Site != 1 || b.Manifest.Game != "pong" || b.Manifest.Frame != 21 {
		t.Errorf("manifest = %+v", b.Manifest)
	}
	if b.Manifest.Cause != "synthetic divergence" {
		t.Errorf("cause = %q", b.Manifest.Cause)
	}
	if b.Manifest.ROMHash != flight.ROMHash(b.ROM) || len(b.ROM) == 0 {
		t.Error("embedded ROM does not match its manifest hash")
	}
	// The input ring keeps the freshest 8 frames, oldest first.
	if len(b.Frames) != 8 || b.Frames[0].Frame != 13 || b.Frames[7].Frame != 20 {
		t.Fatalf("frame window = %+v", b.Frames)
	}
	for _, f := range b.Frames {
		if f.Input != testInput(int(f.Frame)) {
			t.Errorf("frame %d recorded input %#x, want %#x", f.Frame, f.Input, testInput(int(f.Frame)))
		}
	}
	// Savestates every 4 frames, last 2 retained: frames 16 and 20.
	if len(b.Snapshots) != 2 || b.Snapshots[0].Frame != 16 || b.Snapshots[1].Frame != 20 {
		t.Fatalf("snapshots = %d and frames %v", len(b.Snapshots), b.Snapshots)
	}
	if b.Final == nil || b.Final.Frame != 20 || len(b.Final.State) == 0 {
		t.Fatalf("final snapshot = %+v", b.Final)
	}
	if len(b.RemoteHashes) != 4 || b.RemoteHashes[0].Frame != 6 || b.RemoteHashes[3].Frame != 9 {
		t.Fatalf("remote window = %+v", b.RemoteHashes)
	}

	// Auto-write happened, and the bundle on disk is the bundle in memory.
	path := rec.BundlePath()
	want := filepath.Join(dir, "flight-site1-desync-f21.rkfb")
	if path != want {
		t.Fatalf("bundle path = %q, want %q", path, want)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, rec.Bundle()) {
		t.Fatal("bundle on disk differs from the in-memory one")
	}

	// The trigger is one-shot: a second incident must not replace the bundle.
	rec.Incident(core.IncidentStall, fmt.Errorf("later stall"))
	b2, err := flight.Decode(rec.Bundle())
	if err != nil {
		t.Fatal(err)
	}
	if b2.Manifest.Kind != "desync" {
		t.Fatalf("second incident overwrote the first: kind = %q", b2.Manifest.Kind)
	}
}

func TestDumpIsNonConsuming(t *testing.T) {
	rec, _ := recordRun(t, flight.Options{Site: 0, SnapEvery: -1}, 30, 0, 0, 0)
	var buf bytes.Buffer
	if err := rec.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	b, err := flight.Decode(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if b.Manifest.Kind != "manual" {
		t.Fatalf("manual dump kind = %q", b.Manifest.Kind)
	}
	if rec.Bundle() != nil {
		t.Fatal("Dump consumed the one-shot trigger")
	}
	// A real incident afterwards still produces its own bundle, and Dump
	// then returns the frozen incident bundle verbatim.
	rec.Incident(core.IncidentPanic, fmt.Errorf("boom"))
	buf.Reset()
	if err := rec.Dump(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), rec.Bundle()) {
		t.Fatal("post-incident Dump did not stream the frozen bundle")
	}
}

func TestWriteManual(t *testing.T) {
	dir := t.TempDir()
	rec, _ := recordRun(t, flight.Options{Site: 0, Dir: dir, SnapEvery: -1}, 10, 0, 0, 0)
	path, err := rec.WriteManual()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(path, "manual") {
		t.Fatalf("path = %q, want a manual-kind bundle", path)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal(err)
	}
	if rec.Bundle() == nil {
		t.Fatal("WriteManual must consume the trigger")
	}
	again, err := rec.WriteManual()
	if err != nil || again != path {
		t.Fatalf("second WriteManual = %q, %v; want the original path", again, err)
	}
}

// TestTriagePokeFromSnapshot is the analyzer's central contract on a single
// bundle: with the boot state out of the input window, triage replays from
// the oldest covered savestate, flags the exact frame the machine deviated
// from its own record, and the state diff names the poked RAM byte.
func TestTriagePokeFromSnapshot(t *testing.T) {
	const (
		pokeFrame = 200
		pokeAddr  = 0x7ABC
		pokeXOR   = 0x5A
	)
	rec, _ := recordRun(t, flight.Options{
		Site: 1, InputWindow: 128, SnapEvery: 50, Snapshots: 4,
	}, 260, pokeFrame, pokeAddr, pokeXOR)
	rec.Incident(core.IncidentDesync, fmt.Errorf("synthetic"))
	b, err := flight.Decode(rec.Bundle())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := flight.Analyze(b)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FirstDivergentFrame != pokeFrame {
		t.Fatalf("first divergent frame = %d (%s), want %d", rep.FirstDivergentFrame, rep.Method, pokeFrame)
	}
	if rep.NondeterministicSite != 1 {
		t.Fatalf("nondeterministic site = %d, want 1", rep.NondeterministicSite)
	}
	sa := rep.Sites[0]
	if sa.ReplayErr != "" {
		t.Fatalf("replay failed: %s", sa.ReplayErr)
	}
	// Boot (frame -1) is out of the 128-frame window; the replay must have
	// started from a retained savestate before the poke.
	if sa.ReplayedFrom < 0 || sa.ReplayedFrom >= pokeFrame {
		t.Fatalf("replayed from %d, want a checkpoint in [0, %d)", sa.ReplayedFrom, pokeFrame)
	}
	if sa.Deterministic || sa.DeviationFrame != pokeFrame {
		t.Fatalf("deviation frame = %d (deterministic=%v), want %d", sa.DeviationFrame, sa.Deterministic, pokeFrame)
	}
	found := false
	for _, d := range sa.Diff {
		if d.Kind == flight.DiffRAM && d.Index == pokeAddr {
			found = true
			if byte(d.Got) != byte(d.Want)^pokeXOR {
				t.Errorf("ram[%#x] diff want/got = %#x/%#x, expected XOR by %#x", pokeAddr, d.Want, d.Got, pokeXOR)
			}
		}
	}
	if !found {
		t.Fatalf("state diff does not name the poked byte %#x: %v", pokeAddr, sa.Diff)
	}
}

// TestTriageCleanBundle pins the negative: a healthy recording replays
// deterministically and reports no divergence.
func TestTriageCleanBundle(t *testing.T) {
	rec, _ := recordRun(t, flight.Options{Site: 0}, 200, 0, 0, 0)
	rec.Incident(core.IncidentStall, fmt.Errorf("peer silent"))
	b, err := flight.Decode(rec.Bundle())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := flight.Analyze(b)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FirstDivergentFrame != -1 || rep.NondeterministicSite != -1 {
		t.Fatalf("clean bundle triaged as divergent: %+v", rep)
	}
	if sa := rep.Sites[0]; !sa.Deterministic || sa.ReplayedFrom != -1 || sa.ReplayedTo != 200 {
		t.Fatalf("clean replay = %+v, want deterministic from boot through 200", sa)
	}
}

// TestTriageTwoBundles exercises the cross-bundle path: one bundle per site,
// the first divergent frame found by direct per-frame hash comparison.
func TestTriageTwoBundles(t *testing.T) {
	const (
		pokeFrame = 150
		pokeAddr  = 0x7ABC
		pokeXOR   = 0x11
	)
	recA, _ := recordRun(t, flight.Options{Site: 0}, 220, 0, 0, 0)
	recB, _ := recordRun(t, flight.Options{Site: 1}, 220, pokeFrame, pokeAddr, pokeXOR)
	recA.Incident(core.IncidentDesync, fmt.Errorf("synthetic"))
	recB.Incident(core.IncidentDesync, fmt.Errorf("synthetic"))
	bA, err := flight.Decode(recA.Bundle())
	if err != nil {
		t.Fatal(err)
	}
	bB, err := flight.Decode(recB.Bundle())
	if err != nil {
		t.Fatal(err)
	}
	rep, err := flight.Analyze(bA, bB)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FirstDivergentFrame != pokeFrame {
		t.Fatalf("first divergent frame = %d (%s), want %d", rep.FirstDivergentFrame, rep.Method, pokeFrame)
	}
	if !strings.Contains(rep.Method, "cross-bundle") {
		t.Fatalf("method = %q, want the cross-bundle comparison", rep.Method)
	}
	if rep.NondeterministicSite != 1 {
		t.Fatalf("nondeterministic site = %d, want 1", rep.NondeterministicSite)
	}
	if sa := rep.Sites[0]; !sa.Deterministic {
		t.Fatalf("healthy site 0 flagged nondeterministic: %+v", sa)
	}
}

// TestTriageSpanLatencyRows checks that a journal attached to the recorder
// surfaces per-input latency rows around the divergence frame, in both the
// structured report and the verbose rendering.
func TestTriageSpanLatencyRows(t *testing.T) {
	const (
		pokeFrame = 200
		pokeAddr  = 0x7ABC
		pokeXOR   = 0x5A
	)
	epoch := time.Unix(0, 0)
	j := span.NewJournal(epoch, 512)
	var sb span.Batch
	sb.Reset(j)
	at := func(f int64, off time.Duration) time.Time {
		return epoch.Add(time.Duration(f)*16670*time.Microsecond + off)
	}
	for f := int64(190); f <= 260; f++ {
		sb.Pressed(f, at(f-6, 0)) // frame f's input pressed one lag (6 frames) early
		sb.Recv(f, at(f, -2*time.Millisecond), 0)
		sb.RemoteExec(f-6, at(f-6, 0).Sub(epoch).Nanoseconds(), 6)
		sb.Executed(f, at(f, 0))
	}
	sb.Flush()
	rec, _ := recordRun(t, flight.Options{
		Site: 1, InputWindow: 128, SnapEvery: 50, Snapshots: 4, Journal: j,
	}, 260, pokeFrame, pokeAddr, pokeXOR)
	rec.Incident(core.IncidentDesync, fmt.Errorf("synthetic"))
	b, err := flight.Decode(rec.Bundle())
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Spans) == 0 {
		t.Fatal("bundle carries no spans despite an attached journal")
	}
	rep, err := flight.Analyze(b)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FirstDivergentFrame != pokeFrame {
		t.Fatalf("first divergent frame = %d, want %d", rep.FirstDivergentFrame, pokeFrame)
	}
	var atPoke *flight.InputLatencyRow
	for i := range rep.InputLatency {
		row := &rep.InputLatency[i]
		if row.Frame < pokeFrame-30 || row.Frame > pokeFrame+30 {
			t.Fatalf("latency row for frame %d outside the ±30 window", row.Frame)
		}
		if row.Frame == pokeFrame {
			atPoke = row
		}
	}
	if atPoke == nil {
		t.Fatal("no latency row at the divergence frame")
	}
	wantLag := int64(6 * 16670 * time.Microsecond)
	if atPoke.LocalNs != wantLag {
		t.Errorf("local latency at divergence = %d, want the %d lag", atPoke.LocalNs, wantLag)
	}
	if atPoke.CrossNs != wantLag {
		t.Errorf("cross latency at divergence = %d, want %d", atPoke.CrossNs, wantLag)
	}
	var out bytes.Buffer
	rep.Format(&out)
	if !strings.Contains(out.String(), "input latency") {
		t.Fatalf("verbose report lacks the input-latency table:\n%s", out.String())
	}
}

// TestDeltaRingMaterializesFullImages proves the base+delta snapshot ring is
// invisible in the bundle: every StateSnapshot is byte-identical to the full
// savestate the console would have produced at that frame, even after the
// ring rotates through several base/delta cycles.
func TestDeltaRingMaterializesFullImages(t *testing.T) {
	game := games.MustLoad("pong")
	console, err := game.Boot()
	if err != nil {
		t.Fatal(err)
	}
	rec := flight.NewRecorder(console, flight.Options{
		Game: "pong", ROM: game.Encode(), Config: testConfig(),
		SnapEvery: 3, Snapshots: 4, SnapBaseEvery: 5,
	})
	want := map[int64][]byte{}
	for f := 0; f <= 200; f++ {
		console.StepFrame(testInput(f))
		rec.RecordFrame(f, testInput(f), console.StateHash(), 0)
		if f%3 == 0 {
			want[int64(f)] = console.Save()
		}
	}
	rec.Incident(core.IncidentManual, nil)
	b, err := flight.Decode(rec.Bundle())
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Snapshots) != 4 {
		t.Fatalf("bundle has %d snapshots, want 4", len(b.Snapshots))
	}
	for _, s := range b.Snapshots {
		full, ok := want[s.Frame]
		if !ok {
			t.Fatalf("snapshot at unexpected frame %d", s.Frame)
		}
		if !bytes.Equal(s.State, full) {
			t.Errorf("frame %d: materialized snapshot differs from the full savestate", s.Frame)
		}
	}
}

// saveOnlyMachine supports savestates but not dirty-page deltas: the
// recorder must fall back to one full image per slot.
type saveOnlyMachine struct{ state byte }

func (m *saveOnlyMachine) StepFrame(input uint16) { m.state += byte(input) + 1 }
func (m *saveOnlyMachine) StateHash() uint64      { return uint64(m.state) }
func (m *saveOnlyMachine) Save() []byte           { return []byte{m.state} }
func (m *saveOnlyMachine) Restore(d []byte) error { m.state = d[0]; return nil }

func TestSnapshotFallbackWithoutDeltaSupport(t *testing.T) {
	m := &saveOnlyMachine{}
	rec := flight.NewRecorder(m, flight.Options{Config: testConfig(), SnapEvery: 1, Snapshots: 3})
	for f := 0; f < 10; f++ {
		m.StepFrame(0)
		rec.RecordFrame(f, 0, m.StateHash(), 0)
	}
	rec.Incident(core.IncidentManual, nil)
	b, err := flight.Decode(rec.Bundle())
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Snapshots) != 3 {
		t.Fatalf("bundle has %d snapshots, want 3", len(b.Snapshots))
	}
	for i, s := range b.Snapshots {
		if wantState := byte(s.Frame) + 1; len(s.State) != 1 || s.State[0] != wantState {
			t.Errorf("snapshot %d: state %v, want [%d]", i, s.State, wantState)
		}
	}
}
