package main

import (
	"bufio"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

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
// While it records, its /metrics must count the same reports and one site.
func TestFrameCountsAreSamplesReceived(t *testing.T) {
	const frames = 20
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(self)
	cmd.Args = []string{"timeserverd", "-listen", "127.0.0.1:0", "-duration", "2s", "-sites", "0,1", "-obs", "127.0.0.1:0"}
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
	var addr, obsAddr string
	for addr == "" && sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "timeserverd: observability on http://"); ok {
			obsAddr, _, _ = strings.Cut(rest, "/")
		}
		if rest, ok := strings.CutPrefix(sc.Text(), "timeserverd: recording frame reports on "); ok {
			addr, _, _ = strings.Cut(rest, " ")
		}
	}
	if addr == "" || obsAddr == "" {
		t.Fatal("timeserverd did not log its addresses")
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

	// The reports arrive over loopback within milliseconds; the command
	// records for two seconds.
	want := []string{"retrolock_timeserver_reports 20\n", "retrolock_timeserver_sites 1\n"}
	var metrics string
	for deadline := time.Now().Add(time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		resp, err := http.Get("http://" + obsAddr + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if metrics = string(body); strings.Contains(metrics, want[0]) && strings.Contains(metrics, want[1]) {
			break
		}
	}
	for _, w := range want {
		if !strings.Contains(metrics, w) {
			t.Errorf("/metrics has no line %q:\n%s", strings.TrimSpace(w), metrics)
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
