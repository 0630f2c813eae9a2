package timeserver

import (
	"net"
	"testing"
	"time"
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

// TestDecodeReportFrameBound: frame 2^31-1 decodes, frame 2^31 is
// malformed. Before the bound, 2^31 decoded to 2^31 on 64-bit hosts and to
// -2^31 on 32-bit ones, where it sorted before every other frame.
func TestDecodeReportFrameBound(t *testing.T) {
	top := []byte{msgReport, 1, 0xFF, 0xFF, 0xFF, 0x7F}
	if site, frame, err := DecodeReport(top); err != nil || site != 1 || frame != 1<<31-1 {
		t.Errorf("frame 2^31-1: got %d/%d/%v, want 1/%d/nil", site, frame, err, 1<<31-1)
	}
	for _, raw := range [][]byte{
		{msgReport, 1, 0x00, 0x00, 0x00, 0x80}, // 2^31
		{msgReport, 1, 0xFF, 0xFF, 0xFF, 0xFF}, // 2^32-1
	} {
		if _, frame, err := DecodeReport(raw); err == nil {
			t.Errorf("report %x accepted as frame %d, want malformed", raw, frame)
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

func TestOutOfOrderReportsComeBackFrameSorted(t *testing.T) {
	r := newRecorder()
	for i, f := range []int{2, 0, 1, 0} { // the second 0 is a late duplicate
		r.record(0, f, epoch.Add(time.Duration(i)*time.Millisecond))
	}
	want := []Sample{
		{Frame: 0, At: epoch.Add(1 * time.Millisecond)},
		{Frame: 1, At: epoch.Add(2 * time.Millisecond)},
		{Frame: 2, At: epoch},
	}
	got := r.samples(0)
	if len(got) != len(want) {
		t.Fatalf("samples = %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i].Frame != want[i].Frame || !got[i].At.Equal(want[i].At) {
			t.Fatalf("samples = %+v, want %+v", got, want)
		}
	}
	// Sorting the returned copy must not reorder the recorder's log.
	if log := r.sites[0].samples; log[0].Frame != 2 {
		t.Fatalf("recorder log reordered: %+v", log)
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
