package main

import (
	"fmt"
	"hash/fnv"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"retrolock/internal/rom/games"
)

// TestMain runs the command itself when the test binary is started under the
// name romtool, so the tests below drive the real main, exit codes included.
func TestMain(m *testing.M) {
	if filepath.Base(os.Args[0]) == "romtool" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// romtool runs the test binary as romtool with args and returns its stdout.
func romtool(t *testing.T, args ...string) string {
	t.Helper()
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(self)
	cmd.Args = append([]string{"romtool"}, args...)
	var stderr strings.Builder
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("romtool %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	return string(out)
}

func TestListNamesEveryBuiltInGame(t *testing.T) {
	got := strings.Fields(romtool(t, "list"))
	want := games.Names()
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("list = %v, want %v", got, want)
	}
}

func TestExportThenInfo(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pong.rk32")
	romtool(t, "export", "pong", path)
	out := romtool(t, "info", path)

	game := games.MustLoad("pong")
	h := fnv.New64a()
	h.Write(game.Code)
	for _, want := range []string{
		"title:     " + game.Title + "\n",
		fmt.Sprintf("entry:     0x%04X\n", game.Entry),
		fmt.Sprintf("code:      %d bytes", len(game.Code)),
		fmt.Sprintf("code hash: %016x\n", h.Sum64()),
	} {
		if !strings.Contains(out, want) {
			t.Errorf("info output lacks %q:\n%s", want, out)
		}
	}
}

// TestRunHashMatchesDirectReplay checks the state hash run prints against
// the console stepped directly through the same idle input stream.
func TestRunHashMatchesDirectReplay(t *testing.T) {
	const frames = 600
	for _, name := range games.Names() {
		out := romtool(t, "run", name, "-frames", fmt.Sprint(frames))
		console, err := games.MustLoad(name).Boot()
		if err != nil {
			t.Fatal(err)
		}
		for f := 0; f < frames; f++ {
			console.StepFrame(0)
		}
		want := fmt.Sprintf("%d frames, halted=false, overruns=0, state hash %016x\n", frames, console.StateHash())
		if !strings.Contains(out, want) {
			t.Errorf("%s: run printed %q, want a line ending %q", name, out, want)
		}
	}
}
