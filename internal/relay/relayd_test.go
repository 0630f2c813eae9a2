package relay

import (
	"runtime"
	"testing"
	"time"
)

// startRelayd builds a daemon on one loopback UDP front with fleet stats on
// and starts it, as cmd/relayd does.
func startRelayd(t *testing.T) *Daemon {
	t.Helper()
	front, err := ListenUDPFront("127.0.0.1:0")
	if err != nil {
		t.Skipf("udp unavailable: %v", err)
	}
	d, err := NewDaemon(Config{Shards: 2, Stats: true}, []Front{front})
	if err != nil {
		t.Fatal(err)
	}
	d.Start()
	t.Cleanup(func() { _ = d.Close() })
	return d
}

// waitGoroutines waits up to a second for the goroutine count to fall back
// to want, and fails with every stack if it does not.
func waitGoroutines(t *testing.T, want int) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > want; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines outlive the relay, want %d:\n%s", runtime.NumGoroutine(), want, buf[:runtime.Stack(buf, true)])
		}
	}
}

// TestFleetRealLoop runs the fleet's wall-clock loop as relayd does: Start
// after the daemon's, then at shutdown the daemon's Close and the fleet's.
// The loop must tick, stop at either Close without waiting for its next
// tick (relayd's window is a second, and its shutdown flush follows), and
// leave no goroutine behind.
func TestFleetRealLoop(t *testing.T) {
	before := runtime.NumGoroutine()

	d := startRelayd(t)
	fl, err := NewFleet(d, FleetConfig{Window: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	fl.Start()
	for deadline := time.Now().Add(5 * time.Second); fl.Snapshot().AtNs == 0; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the fleet loop never ticked")
		}
	}
	fl.Close()
	_ = d.Close()
	waitGoroutines(t, before)

	for _, tc := range []struct {
		name string
		stop func(d *Daemon, fl *Fleet)
	}{
		{"fleet Close", func(_ *Daemon, fl *Fleet) { fl.Close() }},
		{"daemon Close, then fleet Close", func(d *Daemon, fl *Fleet) { _ = d.Close(); fl.Close() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			d := startRelayd(t)
			fl, err := NewFleet(d, FleetConfig{Window: time.Minute})
			if err != nil {
				t.Fatal(err)
			}
			fl.Start()
			time.Sleep(50 * time.Millisecond) // let the loop reach its wait
			stopped := make(chan struct{})
			go func() {
				tc.stop(d, fl)
				close(stopped)
			}()
			select {
			case <-stopped:
			case <-time.After(2 * time.Second):
				t.Fatal("the fleet loop waits for its next tick before it stops")
			}
			_ = d.Close()
			waitGoroutines(t, before)
		})
	}
}
