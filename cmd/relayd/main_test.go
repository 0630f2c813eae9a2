package main

import (
	"bytes"
	"flag"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"retrolock/internal/capture"
	"retrolock/internal/obs"
	"retrolock/internal/relay"
)

// TestRelaydFleetParams pins the -topk/-grade-window/-grade-target
// plumbing: documented defaults, flag overrides, and the clamp that sends
// nonsense values back to the defaults (mirrors cmd/experiment's relayload
// params test).
func TestRelaydFleetParams(t *testing.T) {
	setFlags := func(topk, window, target string) {
		t.Helper()
		for flagName, v := range map[string]string{
			"topk": topk, "grade-window": window, "grade-target": target,
		} {
			if err := flag.Set(flagName, v); err != nil {
				t.Fatal(err)
			}
		}
	}
	defer setFlags("16", "1s", defaultGradeTarget.String())

	cases := []struct {
		name                 string
		topk, window, target string
		wantK                int
		wantWindow, wantTgt  time.Duration
	}{
		{"defaults", "16", "1s", "33.34ms", 16, time.Second, defaultGradeTarget},
		{"override", "32", "250ms", "50ms", 32, 250 * time.Millisecond, 50 * time.Millisecond},
		{"zero clamps", "0", "0s", "0s", 16, time.Second, defaultGradeTarget},
		{"negative clamps", "-4", "-2s", "-1ms", 16, time.Second, defaultGradeTarget},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			setFlags(tc.topk, tc.window, tc.target)
			k, window, target := fleetParams()
			if k != tc.wantK || window != tc.wantWindow || target != tc.wantTgt {
				t.Errorf("fleetParams() = (%d, %v, %v), want (%d, %v, %v)",
					k, window, target, tc.wantK, tc.wantWindow, tc.wantTgt)
			}
		})
	}
}

// TestFlusherRunsOnce pins the shutdown-flush contract: however many paths
// race into it — the signal handler, the normal exit, both at once — the
// evidence flush body runs exactly once.
func TestFlusherRunsOnce(t *testing.T) {
	var runs atomic.Int32
	flush := newFlusher(func() { runs.Add(1) })
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() { defer wg.Done(); flush() }()
	}
	wg.Wait()
	flush()
	if got := runs.Load(); got != 1 {
		t.Fatalf("flush body ran %d times, want exactly 1", got)
	}
}

// TestSignalPathFlushesCapture is the regression test for the lost -capture
// snapshot: the signal handler used to rely on srv.Serve unwinding to reach
// the tap flush, so a stalled shutdown lost the evidence. Now the signal
// path calls the same idempotent flusher the exit path does — simulate both
// firing and assert the tap snapshot landed on disk intact, once.
func TestSignalPathFlushesCapture(t *testing.T) {
	tap := capture.NewRecorder(16, 1<<10)
	tok := relay.MakeToken(3, 7, 0xbeef)
	buf := make([]byte, relay.HeaderLen+4)
	n := relay.PutHeader(buf, tok, 1)
	tap.Record(time.Unix(100, 0), capture.DirRecv, 1, buf[:n+4])

	path := filepath.Join(t.TempDir(), "shutdown.rkcp")
	var writes atomic.Int32
	flush := newFlusher(func() {
		writes.Add(1)
		if err := writeTap(tap, path); err != nil {
			t.Errorf("writeTap: %v", err)
		}
	})
	flush() // signal path
	flush() // normal exit path, racing behind it
	if got := writes.Load(); got != 1 {
		t.Fatalf("tap flushed %d times, want 1", got)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("capture file after signal flush: %v", err)
	}
	c, err := capture.Decode(data)
	if err != nil {
		t.Fatalf("capture file does not decode: %v", err)
	}
	if len(c.Records) != 1 {
		t.Fatalf("flushed capture holds %d records, want 1", len(c.Records))
	}
	got, _, _, ok := relay.ParseHeader(c.Records[0].Payload)
	if !ok || got != tok {
		t.Fatalf("flushed record does not demux to the recorded session: token=%v ok=%v", got, ok)
	}
}

// TestWriteBundle pins the -autocapture file contract: the bundle lands as
// anomaly-<token>-<verdict>.rkcp and decodes back to the session it names.
func TestWriteBundle(t *testing.T) {
	dir := t.TempDir()
	tok := relay.MakeToken(5, 9, 0xcafe)
	buf := make([]byte, relay.HeaderLen)
	relay.PutHeader(buf, tok, 0)
	ac := relay.AnomalyCapture{
		Token: tok,
		State: obs.Degraded,
		Capture: &capture.Capture{
			Meta:    capture.Meta{Version: capture.Version, Session: tok.String(), Verdict: "degraded"},
			Records: []capture.Record{{Dir: capture.DirRecv, Payload: buf}},
		},
	}
	path, err := writeBundle(dir, ac)
	if err != nil {
		t.Fatal(err)
	}
	want := filepath.Join(dir, "anomaly-"+tok.String()+"-degraded.rkcp")
	if path != want {
		t.Errorf("bundle path = %q, want %q", path, want)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	c, err := capture.Decode(data)
	if err != nil {
		t.Fatalf("bundle does not decode: %v", err)
	}
	if c.Meta.Session != tok.String() || c.Meta.Verdict != "degraded" {
		t.Errorf("bundle meta = (%q, %q), want (%q, degraded)", c.Meta.Session, c.Meta.Verdict, tok)
	}
}

// setFlag sets a relayd flag for the rest of the test and restores its
// default afterwards.
func setFlag(t *testing.T, name, value string) {
	t.Helper()
	if err := flag.Set(name, value); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = flag.Set(name, flag.Lookup(name).DefValue) })
}

// joinRelay sends "JOIN <code> <site>" from sock until the lobby answers
// with a placement, and returns the relay front it names.
func joinRelay(sock *net.UDPConn, lobbyAddr, code string, site int) (tok relay.Token, front *net.UDPAddr, err error) {
	to, err := net.ResolveUDPAddr("udp", lobbyAddr)
	if err != nil {
		return tok, nil, err
	}
	buf := make([]byte, 256)
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		if _, err := sock.WriteTo([]byte(fmt.Sprintf("JOIN %s %d", code, site)), to); err != nil {
			return tok, nil, err
		}
		_ = sock.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
		n, _, err := sock.ReadFrom(buf)
		if err != nil {
			continue
		}
		if f := strings.Fields(string(buf[:n])); len(f) == 3 && f[0] == "RELAY" {
			if tok, err = relay.ParseToken(f[1]); err != nil {
				return tok, nil, err
			}
			front, err = net.ResolveUDPAddr("udp", f[2])
			return tok, front, err
		}
	}
	return tok, nil, fmt.Errorf("site %d: no placement from the lobby", site)
}

// TestRelaydWiring runs relayd's own wiring over loopback with -capture,
// -obs and -autocapture: two clients are placed through the embedded lobby,
// datagrams are relayed both ways (the first one parked until its
// destination binds), and the signal path stops the daemon. The written
// capture must decode, and every forwarded datagram must appear as a
// DirRecv record from its sender and a DirSend record to its receiver with
// the same bytes.
func TestRelaydWiring(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tap.rkcp")
	for name, v := range map[string]string{
		"listen": "127.0.0.1:0", "lobby": "127.0.0.1:0", "obs": "127.0.0.1:0",
		"shards": "2", "capture": path, "autocapture": t.TempDir(),
	} {
		setFlag(t, name, v)
	}
	r, err := start()
	if err != nil {
		t.Fatal(err)
	}
	served := make(chan error, 1)
	go func() { served <- r.serve() }()
	stopped := false
	stop := func() {
		if !stopped {
			stopped = true
			r.stop()
			if err := <-served; err != nil {
				t.Errorf("serve: %v", err)
			}
		}
	}
	defer stop()

	var socks [2]*net.UDPConn
	for i := range socks {
		if socks[i], err = net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)}); err != nil {
			t.Skipf("udp unavailable: %v", err)
		}
		defer socks[i].Close()
	}
	var toks [2]relay.Token
	var fronts [2]*net.UDPAddr
	errs := make(chan error, 2)
	for site := range socks {
		go func() {
			var err error
			toks[site], fronts[site], err = joinRelay(socks[site], r.srv.Addr(), "wiring", site)
			errs <- err
		}()
	}
	for range socks {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if toks[0] != toks[1] || fronts[0].String() != fronts[1].String() {
		t.Fatalf("the sites were placed apart: %v at %v and %v at %v", toks[0], fronts[0], toks[1], fronts[1])
	}
	tok, front := toks[0], fronts[0]

	datagram := func(site int, payload string) []byte {
		b := make([]byte, relay.HeaderLen+len(payload))
		copy(b[relay.PutHeader(b, tok, site):], payload)
		return b
	}
	// await reads from site's socket until payload arrives from the peer,
	// sending resend (if any) to the relay on every timeout.
	await := func(site int, payload string, resend []byte, from int) {
		t.Helper()
		buf := make([]byte, relay.MaxDatagram)
		for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
			if resend != nil {
				_, _ = socks[from].WriteTo(resend, front)
			}
			_ = socks[site].SetReadDeadline(time.Now().Add(100 * time.Millisecond))
			for {
				n, _, err := socks[site].ReadFrom(buf)
				if err != nil {
					break
				}
				if bytes.Equal(buf[:n], datagram(1-site, payload)) {
					return
				}
			}
		}
		t.Fatalf("%q never reached site %d", payload, site)
	}

	// Site 1 has not spoken, so the relay parks site 0's first datagram
	// until site 1's header-only bind arrives.
	if _, err := socks[0].WriteTo(datagram(0, "parked"), front); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond)
	await(1, "parked", datagram(1, ""), 1)
	sent := [][]byte{datagram(0, "parked")}
	for i := 0; i < 4; i++ {
		for from := range socks {
			p := fmt.Sprintf("d%d-from-%d", i, from)
			await(1-from, p, datagram(from, p), from)
			sent = append(sent, datagram(from, p))
		}
	}
	stop()

	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("relayd wrote no capture: %v", err)
	}
	c, err := capture.Decode(data)
	if err != nil {
		t.Fatalf("the capture does not decode: %v", err)
	}
	// Pair every DirSend record with an unpaired DirRecv record of the same
	// bytes taken no later than it, from the other site.
	recvs := map[string][]int{} // payload -> indices of unpaired DirRecv records
	forwarded := map[string]int{}
	for i, rec := range c.Records {
		key := string(rec.Payload)
		switch rec.Dir {
		case capture.DirRecv:
			recvs[key] = append(recvs[key], i)
		case capture.DirSend:
			q := recvs[key]
			if len(q) == 0 {
				t.Fatalf("record %d: a DirSend of %q with no DirRecv of the same bytes before it", i, key)
			}
			if in := c.Records[q[0]]; in.Site != 1-rec.Site || in.At > rec.At {
				t.Errorf("record %d: DirSend to site %d at %v pairs with a DirRecv from site %d at %v",
					i, rec.Site, rec.At, in.Site, in.At)
			}
			recvs[key] = q[1:]
			forwarded[key]++
		}
	}
	for _, d := range sent {
		if forwarded[string(d)] == 0 {
			t.Errorf("%q has no DirRecv/DirSend pair in the capture", d[relay.HeaderLen:])
		}
	}
}
