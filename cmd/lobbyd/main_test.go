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
	"sync"
	"testing"
	"time"

	"retrolock/internal/lobby"
)

// TestMain runs the command itself when the test binary is started under the
// name lobbyd, so the test below drives the real main.
func TestMain(m *testing.M) {
	if filepath.Base(os.Args[0]) == "lobbyd" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// startLobbyd runs the test binary as lobbyd on ephemeral loopback ports and
// returns the rendezvous and observability addresses read from its log.
func startLobbyd(t *testing.T) (listen, obsAddr string) {
	t.Helper()
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(self)
	cmd.Args = []string{"lobbyd", "-listen", "127.0.0.1:0", "-obs", "127.0.0.1:0"}
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

	found := make(chan [2]string, 1)
	go func() {
		var addrs [2]string
		sc := bufio.NewScanner(logs)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "lobbyd: serving rendezvous on "); ok {
				addrs[0] = rest
			}
			if rest, ok := strings.CutPrefix(line, "lobbyd: observability on http://"); ok {
				addrs[1], _, _ = strings.Cut(rest, "/")
			}
			if addrs[0] != "" && addrs[1] != "" {
				found <- addrs
				break
			}
		}
		_, _ = io.Copy(io.Discard, logs) // keep the pipe drained
	}()
	select {
	case addrs := <-found:
		return addrs[0], addrs[1]
	case <-time.After(10 * time.Second):
		t.Fatal("lobbyd did not log both of its addresses")
		return "", ""
	}
}

// TestLobbydPairsClientsAndServesMetrics starts the command, pairs two
// clients on one session code through it, and scrapes its metrics.
func TestLobbydPairsClientsAndServesMetrics(t *testing.T) {
	listen, obsAddr := startLobbyd(t)

	type result struct {
		local, peer string
		err         error
	}
	got := make([]result, 2)
	var wg sync.WaitGroup
	for site := 0; site < 2; site++ {
		site := site
		wg.Add(1)
		go func() {
			defer wg.Done()
			l, p, err := lobby.Rendezvous(listen, "lobbyd-test", site, 1-site, 5*time.Second)
			got[site] = result{l, p, err}
		}()
	}
	wg.Wait()
	for site, r := range got {
		if r.err != nil {
			t.Fatalf("site %d: %v", site, r.err)
		}
	}
	// Each site must have learned the other's socket (the local bind is a
	// wildcard address, so compare ports).
	port := func(addr string) string {
		_, p, err := net.SplitHostPort(addr)
		if err != nil {
			t.Fatalf("bad address %q: %v", addr, err)
		}
		return p
	}
	if port(got[0].peer) != port(got[1].local) {
		t.Errorf("site 0 got peer %q, site 1 announced %q", got[0].peer, got[1].local)
	}
	if port(got[1].peer) != port(got[0].local) {
		t.Errorf("site 1 got peer %q, site 0 announced %q", got[1].peer, got[0].local)
	}

	resp, err := http.Get("http://" + obsAddr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "retrolock_lobby_") {
		t.Fatalf("GET /metrics: %s, no retrolock_lobby_ series:\n%s", resp.Status, body)
	}
}
