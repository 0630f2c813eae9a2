package main

import (
	"bytes"
	"testing"
	"time"
)

// TestRun plays a third of a second of the example — two sites over real
// loopback UDP sockets on the host clock, the path cmd/retroplay runs — which
// with the session's half-second drain takes under a second of wall clock.
func TestRun(t *testing.T) {
	var out bytes.Buffer
	start := time.Now()
	if err := run(&out, 20); err != nil {
		t.Fatalf("%v\n%s", err, out.Bytes())
	}
	if d := time.Since(start); d > 5*time.Second {
		t.Errorf("20 frames took %v of wall clock", d)
	}
}
