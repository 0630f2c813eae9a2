package timeserver

import (
	"net"
	"testing"
	"time"

	"retrolock/internal/simnet"
	"retrolock/internal/vclock"
)

var epoch = time.Date(2009, 6, 22, 0, 0, 0, 0, time.UTC)

func TestReportRoundTrip(t *testing.T) {
	site, frame, err := DecodeReport(EncodeReport(1, 123456))
	if err != nil {
		t.Fatal(err)
	}
	if site != 1 || frame != 123456 {
		t.Fatalf("got %d/%d, want 1/123456", site, frame)
	}
	if _, _, err := DecodeReport([]byte{1, 2}); err == nil {
		t.Error("short report accepted")
	}
	bad := EncodeReport(0, 1)
	bad[0] = 0xFF
	if _, _, err := DecodeReport(bad); err == nil {
		t.Error("wrong type accepted")
	}
}

func TestServerRecordsOverSimnet(t *testing.T) {
	v := vclock.NewVirtual(epoch)
	n := simnet.New(v)
	tsEP := n.MustBind("ts")
	site0 := n.MustBind("s0")
	site1 := n.MustBind("s1")

	srv := NewServer(tsEP)
	<-v.Go(func() {
		for f := 0; f < 10; f++ {
			_ = site0.SendTo("ts", EncodeReport(0, f))
			v.Sleep(5 * time.Millisecond)
			_ = site1.SendTo("ts", EncodeReport(1, f))
			v.Sleep(11666 * time.Microsecond) // ~16.7ms frames
			if f%4 == 0 {
				srv.Poll() // any cadence: samples carry their delivery instant
			}
		}
		v.Sleep(10 * time.Millisecond)
		srv.Poll()
	})

	s0 := srv.Samples(0)
	if len(s0) != 10 {
		t.Fatalf("site 0 samples = %d, want 10", len(s0))
	}
	ft := srv.FrameTimes(0)
	if len(ft) != 9 {
		t.Fatalf("frame times = %d, want 9", len(ft))
	}
	for i, d := range ft {
		if d < 16*time.Millisecond || d > 18*time.Millisecond {
			t.Errorf("frame time %d = %v, want ~16.7ms", i, d)
		}
	}
	diffs := srv.SyncDiffs(0, 1)
	if len(diffs) != 10 {
		t.Fatalf("sync diffs = %d, want 10", len(diffs))
	}
	for i, d := range diffs {
		if d < 4*time.Millisecond || d > 6*time.Millisecond {
			t.Errorf("sync diff %d = %v, want ~5ms", i, d)
		}
	}
}

func TestDuplicateReportsKeepFirst(t *testing.T) {
	r := newRecorder()
	t0 := epoch
	r.record(0, 5, t0)
	r.record(0, 5, t0.Add(time.Second))
	s := r.samples(0)
	if len(s) != 1 || !s[0].At.Equal(t0) {
		t.Fatalf("duplicate handling wrong: %+v", s)
	}
}

func TestFrameTimesSkipGaps(t *testing.T) {
	samples := []Sample{
		{Frame: 0, At: epoch},
		{Frame: 1, At: epoch.Add(17 * time.Millisecond)},
		{Frame: 3, At: epoch.Add(51 * time.Millisecond)}, // frame 2 missing
		{Frame: 4, At: epoch.Add(68 * time.Millisecond)},
	}
	ft := FrameTimes(samples)
	if len(ft) != 2 {
		t.Fatalf("frame times = %v, want 2 entries (gap skipped)", ft)
	}
}

func TestSyncDiffsPairByFrame(t *testing.T) {
	a := []Sample{{Frame: 0, At: epoch}, {Frame: 1, At: epoch.Add(17 * time.Millisecond)}}
	b := []Sample{{Frame: 1, At: epoch.Add(20 * time.Millisecond)}, {Frame: 9, At: epoch.Add(time.Second)}}
	d := SyncDiffs(a, b)
	if len(d) != 1 || d[0] != 3*time.Millisecond {
		t.Fatalf("SyncDiffs = %v, want [3ms]", d)
	}
}

func TestUDPServerLoopback(t *testing.T) {
	srv, err := ListenUDP("127.0.0.1:0")
	if err != nil {
		t.Skipf("udp unavailable: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve() }()

	// Fire reports at it over a plain UDP socket.
	conn, err := net.Dial("udp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for f := 0; f < 5; f++ {
		if _, err := conn.Write(EncodeReport(0, f)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(2 * time.Millisecond)
	}
	deadline := time.Now().Add(2 * time.Second)
	for len(srv.Samples(0)) < 5 {
		if time.Now().After(deadline) {
			t.Fatalf("server recorded %d/5 reports", len(srv.Samples(0)))
		}
		time.Sleep(time.Millisecond)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("Serve returned %v after Close", err)
	}
	if ft := srv.FrameTimes(0); len(ft) != 4 {
		t.Fatalf("frame times = %d, want 4", len(ft))
	}
}
