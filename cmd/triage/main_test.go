package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"retrolock/internal/core"
	"retrolock/internal/flight"
	"retrolock/internal/rom/games"
)

// writeBundle records a short pong session (poking addr just before
// pokeFrame when xor != 0), fires a desync incident and writes the bundle
// into dir.
func writeBundle(t *testing.T, dir string, site, last, pokeFrame int, addr uint16, xor byte) string {
	t.Helper()
	game := games.MustLoad("pong")
	console, err := game.Boot()
	if err != nil {
		t.Fatal(err)
	}
	rec := flight.NewRecorder(console, flight.Options{
		Site: site, Game: "pong", ROM: game.Encode(),
		Config: core.Config{NumPlayers: 2, BufFrame: 6},
		Dir:    dir,
	})
	for f := 0; f <= last; f++ {
		if xor != 0 && f == pokeFrame {
			console.Poke(addr, console.Peek(addr)^xor)
		}
		in := uint16(uint32(f) * 2654435761)
		console.StepFrame(in)
		rec.RecordFrame(f, in, console.StateHash(), 0)
	}
	rec.Incident(core.IncidentDesync, fmt.Errorf("test divergence"))
	if err := rec.WriteErr(); err != nil {
		t.Fatal(err)
	}
	return rec.BundlePath()
}

func TestRunSingleBundle(t *testing.T) {
	dir := t.TempDir()
	path := writeBundle(t, dir, 1, 260, 200, 0x7ABC, 0x5A)
	var out, errOut bytes.Buffer
	if code := run([]string{path}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	text := out.String()
	for _, want := range []string{
		"first divergent frame: 200",
		"nondeterministic site: 1",
		"ram[0x7abc]",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("output lacks %q:\n%s", want, text)
		}
	}
}

func TestRunTwoBundlesJSON(t *testing.T) {
	dir := t.TempDir()
	p0 := writeBundle(t, dir, 0, 220, 0, 0, 0)
	p1 := writeBundle(t, dir, 1, 220, 150, 0x7ABC, 0x11)
	var out, errOut bytes.Buffer
	if code := run([]string{"-json", p0, p1}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s", code, errOut.String())
	}
	var rep flight.Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("-json output is not a Report: %v\n%s", err, out.String())
	}
	if rep.FirstDivergentFrame != 150 || rep.NondeterministicSite != 1 {
		t.Fatalf("report = frame %d site %d, want 150/1", rep.FirstDivergentFrame, rep.NondeterministicSite)
	}
}

func TestRunErrors(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run(nil, &out, &errOut); code != 2 {
		t.Errorf("no args: exit %d, want 2", code)
	}
	if code := run([]string{"/does/not/exist.rkfb"}, &out, &errOut); code != 1 {
		t.Errorf("missing file: exit %d, want 1", code)
	}
	bad := filepath.Join(t.TempDir(), "bad.rkfb")
	if err := os.WriteFile(bad, []byte("not a bundle"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := run([]string{bad}, &out, &errOut); code != 1 {
		t.Errorf("corrupt file: exit %d, want 1", code)
	}
}
