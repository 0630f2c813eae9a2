package main

import (
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain runs the command itself when the test binary is started under the
// name experiment, so the tests below drive the real main, exit codes
// included.
func TestMain(m *testing.M) {
	if filepath.Base(os.Args[0]) == "experiment" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestUnknownSeriesIsAUsageError checks that a -series name no series
// answers to exits 2 before running anything, naming every valid series.
func TestUnknownSeriesIsAUsageError(t *testing.T) {
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(self)
	cmd.Args = []string{"experiment", "-series", "bogus"}
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 2 {
		t.Fatalf("experiment -series bogus: err = %v, want exit status 2\nstderr:\n%s", err, stderr.String())
	}
	if len(out) != 0 {
		t.Errorf("experiment -series bogus wrote to stdout:\n%s", out)
	}
	msg := stderr.String()
	if !strings.Contains(msg, `unknown -series "bogus"`) {
		t.Errorf("stderr does not name the bad series:\n%s", msg)
	}
	if !strings.Contains(msg, seriesNames()) {
		t.Errorf("stderr does not list the valid names %q:\n%s", seriesNames(), msg)
	}
	for _, name := range []string{"figure1", "journey", "ablation-adaptivelag", "seeds", "qoeload", "all"} {
		if !strings.Contains(msg, name) {
			t.Errorf("stderr does not name series %q:\n%s", name, msg)
		}
	}
}

// TestEverySeriesIsPinned checks that `make paper` covers every series: each
// one has a golden in testdata/paper, and each golden names a series.
func TestEverySeriesIsPinned(t *testing.T) {
	goldens, err := filepath.Glob(filepath.Join("..", "..", "testdata", "paper", "*.golden"))
	if err != nil {
		t.Fatal(err)
	}
	pinned := make(map[string]bool, len(goldens))
	for _, g := range goldens {
		pinned[strings.TrimSuffix(filepath.Base(g), ".golden")] = true
	}
	for _, s := range seriesTable {
		if !pinned[s.name] {
			t.Errorf("series %q has no testdata/paper/%s.golden: add it to the Makefile's PAPER_SERIES and run make paper-update", s.name, s.name)
		}
		delete(pinned, s.name)
	}
	for name := range pinned {
		t.Errorf("testdata/paper/%s.golden names no series", name)
	}
}
