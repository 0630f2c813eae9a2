package main

import (
	"bufio"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"retrolock/internal/timeserver"
)

// TestMain runs the command itself when the test binary is started under the
// name timeserverd, so the test below drives the real main.
func TestMain(m *testing.M) {
	if filepath.Base(os.Args[0]) == "timeserverd" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestFrameCountsAreSamplesReceived starts the command on an ephemeral port,
// sends frame reports for site 0 only and checks the report: site 0 counts
// exactly the frames it sent, and site 1, which sent nothing, counts none.
func TestFrameCountsAreSamplesReceived(t *testing.T) {
	const frames = 20
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(self)
	cmd.Args = []string{"timeserverd", "-listen", "127.0.0.1:0", "-duration", "1s", "-sites", "0,1"}
	logs, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	})

	sc := bufio.NewScanner(logs)
	var addr string
	for addr == "" && sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "timeserverd: recording frame reports on "); ok {
			addr, _, _ = strings.Cut(rest, " ")
		}
	}
	if addr == "" {
		t.Fatal("timeserverd did not log its address")
	}

	conn, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for f := 0; f < frames; f++ {
		if _, err := conn.Write(timeserver.EncodeReport(0, f)); err != nil {
			t.Fatal(err)
		}
	}

	var report []string
	for sc.Scan() {
		report = append(report, sc.Text())
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("timeserverd: %v\n%s", err, strings.Join(report, "\n"))
	}
	for _, want := range []string{"timeserverd: site 0: 20 frames,", "timeserverd: site 1: 0 frames,"} {
		found := false
		for _, line := range report {
			found = found || strings.HasPrefix(line, want)
		}
		if !found {
			t.Errorf("report has no line starting %q:\n%s", want, strings.Join(report, "\n"))
		}
	}
}
