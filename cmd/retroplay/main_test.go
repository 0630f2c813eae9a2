package main

import (
	"bytes"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"

	"retrolock/internal/replay"
	"retrolock/internal/rom/games"
)

// TestMain runs the command itself when the test binary is started under the
// name retroplay, so the test below drives the real main.
func TestMain(m *testing.M) {
	if filepath.Base(os.Args[0]) == "retroplay" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// freeUDPAddr returns a loopback UDP address that was free a moment ago.
func freeUDPAddr(t *testing.T) string {
	t.Helper()
	pc, err := net.ListenPacket("udp", "127.0.0.1:0")
	if err != nil {
		t.Skipf("udp unavailable: %v", err)
	}
	defer pc.Close()
	return pc.LocalAddr().String()
}

var finalHash = regexp.MustCompile(`final state hash: ([0-9a-f]{16})`)

// TestTwoSitesOverLoopback plays a short headless session between two
// processes of the command over 127.0.0.1, site 0 recording it. Both must
// exit cleanly with the same final state hash, and the recording must
// replay to that hash on a freshly booted console.
func TestTwoSitesOverLoopback(t *testing.T) {
	const frames = 60
	self, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	record := filepath.Join(dir, "site0.rkrp")
	addrs := [2]string{freeUDPAddr(t), freeUDPAddr(t)}

	var (
		cmds [2]*exec.Cmd
		logs [2]bytes.Buffer
	)
	for site := range cmds {
		cmd := exec.Command(self)
		cmd.Args = []string{"retroplay", "-game", "pong", "-site", strconv.Itoa(site),
			"-listen", addrs[site], "-peer", addrs[1-site],
			"-input", "bot", "-frames", strconv.Itoa(frames), "-flight-dir", dir}
		if site == 0 {
			cmd.Args = append(cmd.Args, "-record", record)
		}
		cmd.Stdout, cmd.Stderr = &logs[site], &logs[site]
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		cmds[site] = cmd
	}
	var hashes [2]string
	for site, cmd := range cmds {
		if err := cmd.Wait(); err != nil {
			t.Fatalf("site %d: %v\n%s", site, err, logs[site].String())
		}
		m := finalHash.FindStringSubmatch(logs[site].String())
		if m == nil {
			t.Fatalf("site %d logged no final state hash:\n%s", site, logs[site].String())
		}
		hashes[site] = m[1]
	}
	if hashes[0] != hashes[1] {
		t.Fatalf("final state hashes differ: %s vs %s", hashes[0], hashes[1])
	}

	data, err := os.ReadFile(record)
	if err != nil {
		t.Fatal(err)
	}
	recLog, err := replay.Decode(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(recLog.Inputs) != frames {
		t.Errorf("recording holds %d frames, want %d", len(recLog.Inputs), frames)
	}
	if got := fmt.Sprintf("%016x", recLog.Final); got != hashes[0] {
		t.Errorf("recording ends at hash %s, the sites at %s", got, hashes[0])
	}
	game, err := games.Load("pong")
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := game.Boot()
	if err != nil {
		t.Fatal(err)
	}
	if err := recLog.Verify(fresh); err != nil {
		t.Fatalf("recording does not replay: %v", err)
	}
}
