package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
	"time"
)

var epoch = time.Date(2009, 6, 22, 0, 0, 0, 0, time.UTC)

func TestTracerRingKeepsFreshest(t *testing.T) {
	tr := NewTracer(16, epoch)
	for i := 0; i < 40; i++ {
		tr.Record(EvFrameStart, 0, i, epoch.Add(time.Duration(i)*time.Millisecond), 0)
	}
	if tr.n != 40 {
		t.Fatalf("recorded %d events, want 40", tr.n)
	}
	snap := tr.Snapshot()
	if len(snap) != 16 {
		t.Fatalf("Snapshot len = %d, want ring capacity 16", len(snap))
	}
	for i, e := range snap {
		if want := int32(40 - 16 + i); e.Frame != want {
			t.Fatalf("snap[%d].Frame = %d, want %d (oldest-first, freshest retained)", i, e.Frame, want)
		}
	}
}

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	tr.Record(EvStall, 0, 1, epoch, 2) // must not panic
	if tr.Snapshot() != nil {
		t.Fatal("nil tracer must read as empty")
	}
	var o *SessionObs
	o.FrameStart(1, epoch)
	o.FrameEnd(1, epoch, epoch)
	o.InputSend(1, epoch, 10)
	o.InputRecv(1, epoch, 3)
	o.Stall(1, epoch, time.Millisecond)
	o.RTTSample(time.Millisecond)
	o.Rollback(1, epoch, 2)
	// SessionObs with nil parts must also be safe.
	(&SessionObs{}).FrameEnd(1, epoch, epoch.Add(time.Millisecond))
}

func TestTracerRecordDoesNotAllocate(t *testing.T) {
	tr := NewTracer(1<<10, epoch)
	at := epoch.Add(time.Second)
	if avg := testing.AllocsPerRun(1000, func() {
		tr.Record(EvInputSend, 1, 42, at, 64)
	}); avg != 0 {
		t.Fatalf("Tracer.Record allocates %.1f/op, want 0", avg)
	}
	h := &Histogram{}
	if avg := testing.AllocsPerRun(1000, func() {
		h.Observe(12345)
	}); avg != 0 {
		t.Fatalf("Histogram.Observe allocates %.1f/op, want 0", avg)
	}
}

func TestTracerConcurrentRecordAndSnapshot(t *testing.T) {
	tr := NewTracer(256, epoch)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for site := 0; site < 2; site++ {
		wg.Add(1)
		go func(site int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
					tr.Record(EvFrameStart, site, i, epoch.Add(time.Duration(i)), 0)
				}
			}
		}(site)
	}
	for i := 0; i < 100; i++ {
		_ = tr.Snapshot()
	}
	close(stop)
	wg.Wait()
}

// TestChromeTraceExport checks the export is valid trace_event JSON of the
// shape chrome://tracing loads: a traceEvents array whose entries carry
// name/ph/ts/pid/tid, with B/E pairs balanced per thread.
func TestChromeTraceExport(t *testing.T) {
	tr := NewTracer(64, epoch)
	at := func(ms int) time.Time { return epoch.Add(time.Duration(ms) * time.Millisecond) }
	// An unmatched frame_end first, as after a ring wrap: must be dropped.
	tr.Record(EvFrameEnd, 0, 9, at(0), 0)
	for f := 10; f < 13; f++ {
		tr.Record(EvFrameStart, 0, f, at(f*10), 0)
		tr.Record(EvInputSend, 0, f, at(f*10+2), 48)
		tr.Record(EvStall, 0, f, at(f*10+4), int64(3*time.Millisecond))
		tr.Record(EvFrameEnd, 0, f, at(f*10+8), 0)
	}
	tr.Record(EvRetransmit, 1, -1, at(200), 7)

	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]interface{} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v\n%s", err, buf.String())
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("no trace events exported")
	}
	depth := map[float64]int{}
	for _, e := range doc.TraceEvents {
		for _, k := range []string{"name", "ph", "pid", "tid"} {
			if _, ok := e[k]; !ok {
				t.Fatalf("event missing %q: %v", k, e)
			}
		}
		switch e["ph"] {
		case "B":
			depth[e["tid"].(float64)]++
		case "E":
			depth[e["tid"].(float64)]--
			if depth[e["tid"].(float64)] < 0 {
				t.Fatal("unbalanced E event leaked into the export")
			}
		}
	}
}

func TestJSONLExport(t *testing.T) {
	tr := NewTracer(16, epoch)
	tr.Record(EvInputRecv, 1, 7, epoch.Add(time.Millisecond), 3)
	tr.Record(EvRollback, 1, 9, epoch.Add(2*time.Millisecond), 4)
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("got %d lines, want 2: %q", len(lines), buf.String())
	}
	for _, line := range lines {
		var e struct {
			AtNs  int64  `json:"at_ns"`
			Kind  string `json:"kind"`
			Site  int    `json:"site"`
			Frame int    `json:"frame"`
			Arg   int64  `json:"arg"`
		}
		if err := json.Unmarshal([]byte(line), &e); err != nil {
			t.Fatalf("line %q: %v", line, err)
		}
		if e.Site != 1 {
			t.Fatalf("line %q: site = %d, want 1", line, e.Site)
		}
	}
}

func TestHistogramBuckets(t *testing.T) {
	h := &Histogram{}
	h.Observe(0)  // bucket 0
	h.Observe(1)  // bucket 1
	h.Observe(5)  // bucket 3: [4,7]
	h.Observe(7)  // bucket 3
	h.Observe(-3) // clamps to 0
	b := h.Buckets()
	if b[0] != 2 || b[1] != 1 || b[3] != 2 {
		t.Fatalf("buckets = %v", b[:5])
	}
	if h.Count() != 5 || h.Sum() != 13 {
		t.Fatalf("count=%d sum=%d, want 5, 13", h.Count(), h.Sum())
	}
	if q := h.Quantile(1); q != 7 {
		t.Fatalf("Quantile(1) = %d, want 7 (bound of bucket 3)", q)
	}
	if q := h.Quantile(0); q != 0 {
		t.Fatalf("Quantile(0) = %d, want 0", q)
	}
	if BucketBound(3) != 7 || BucketBound(0) != 0 {
		t.Fatal("BucketBound wrong")
	}
}

func TestHistogramConcurrent(t *testing.T) {
	h := &Histogram{}
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(0); i < 1000; i++ {
				h.Observe(i)
			}
		}()
	}
	for i := 0; i < 100; i++ {
		_ = h.Buckets()
		_ = h.Quantile(0.99)
	}
	wg.Wait()
	if h.Count() != 4000 {
		t.Fatalf("count = %d, want 4000", h.Count())
	}
}
