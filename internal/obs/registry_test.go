package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestKey(t *testing.T) {
	if got := Key("m", nil); got != "m" {
		t.Fatalf("Key = %q", got)
	}
	got := Key("m", Labels{"site": "1", "dir": "ab"})
	if got != `m{dir="ab",site="1"}` {
		t.Fatalf("Key = %q (labels must be sorted)", got)
	}
	if got := Key("m", SiteLabels(3)); got != `m{site="3"}` {
		t.Fatalf("SiteLabels key = %q", got)
	}
}

func TestRegistrySnapshotAndDelta(t *testing.T) {
	r := NewRegistry()
	events := 3.0
	r.CounterFunc("events", SiteLabels(0), "test counter", func() float64 { return events })
	v := 7.0
	r.GaugeFunc("level", nil, "test gauge", func() float64 { return v })
	h := r.NewHistogram("lat_ns", SiteLabels(0), "test histogram")
	h.Observe(100)
	h.Observe(200)

	s1 := r.Snapshot()
	if s1[`events{site="0"}`] != 3 || s1["level"] != 7 {
		t.Fatalf("snapshot = %v", s1)
	}
	if s1[`lat_ns{site="0"}_count`] != 2 || s1[`lat_ns{site="0"}_sum`] != 300 {
		t.Fatalf("histogram snapshot keys wrong: %v", s1)
	}

	events++
	v = 9
	s2 := r.Snapshot()
	d := s2.Delta(s1)
	if d[`events{site="0"}`] != 1 || d["level"] != 2 {
		t.Fatalf("delta = %v", d)
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("x", nil, "", func() float64 { return 0 })
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration must panic")
		}
	}()
	r.CounterFunc("x", nil, "", func() float64 { return 0 })
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.CounterFunc("retrolock_sync_msgs_sent", SiteLabels(0), "sync messages sent", func() float64 { return 12 })
	r.CounterFunc("retrolock_sync_msgs_sent", SiteLabels(1), "sync messages sent", func() float64 { return 34 })
	r.GaugeFunc("retrolock_frame", SiteLabels(0), "next frame", func() float64 { return 60 })
	h := r.NewHistogram("retrolock_frame_time_ns", SiteLabels(0), "frame wall time")
	h.Observe(5) // bucket 3, bound 7
	h.Observe(6)

	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE retrolock_sync_msgs_sent counter",
		`retrolock_sync_msgs_sent{site="0"} 12`,
		`retrolock_sync_msgs_sent{site="1"} 34`,
		"# TYPE retrolock_frame gauge",
		`retrolock_frame{site="0"} 60`,
		"# TYPE retrolock_frame_time_ns histogram",
		`retrolock_frame_time_ns_bucket{le="7",site="0"} 2`,
		`retrolock_frame_time_ns_bucket{le="+Inf",site="0"} 2`,
		`retrolock_frame_time_ns_sum{site="0"} 11`,
		`retrolock_frame_time_ns_count{site="0"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	// The HELP/TYPE header must appear once per metric name, not per series.
	if n := strings.Count(out, "# TYPE retrolock_sync_msgs_sent counter"); n != 1 {
		t.Errorf("TYPE header appears %d times, want 1", n)
	}
}

// TestServeEndpointsLive starts the HTTP surface and scrapes every endpoint
// while a writer goroutine keeps the metrics moving — the "answers while
// frames advance" acceptance shape.
func TestServeEndpointsLive(t *testing.T) {
	r := NewRegistry()
	var frames atomic.Int64
	r.CounterFunc("retrolock_test_frames", nil, "frames executed", func() float64 { return float64(frames.Load()) })
	tr := NewTracer(1024, epoch)
	r.AddTracer(tr)

	srv, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
				frames.Add(1)
				tr.Record(EvFrameStart, 0, i, epoch.Add(time.Duration(i)*time.Millisecond), 0)
				tr.Record(EvFrameEnd, 0, i, epoch.Add(time.Duration(i)*time.Millisecond+time.Millisecond), 0)
			}
		}
	}()
	defer func() { close(stop); wg.Wait() }()

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		return string(body)
	}

	if body := get("/metrics"); !strings.Contains(body, "retrolock_test_frames") {
		t.Errorf("/metrics missing counter:\n%s", body)
	}
	var vars map[string]json.RawMessage
	if err := json.Unmarshal([]byte(get("/debug/vars")), &vars); err != nil {
		t.Errorf("/debug/vars is not JSON: %v", err)
	} else if _, ok := vars["memstats"]; !ok {
		t.Error("/debug/vars missing memstats")
	}
	if body := get("/debug/pprof/"); !strings.Contains(body, "goroutine") {
		t.Error("/debug/pprof/ index missing goroutine profile")
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(get("/debug/trace")), &doc); err != nil {
		t.Errorf("/debug/trace is not valid trace JSON: %v", err)
	} else if len(doc.TraceEvents) == 0 {
		t.Error("/debug/trace exported no events")
	}
	if body := get("/debug/trace?format=jsonl"); !strings.Contains(body, `"kind":"frame_start"`) {
		t.Error("/debug/trace?format=jsonl missing events")
	}

	// Two consecutive scrapes must show progress (the writer is running).
	s1 := r.Snapshot()["retrolock_test_frames"]
	deadline := time.Now().Add(5 * time.Second)
	for {
		if r.Snapshot()["retrolock_test_frames"] > s1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("counter did not advance while serving")
		}
	}
}

// TestFlightDumpEndpoint drives /debug/flight/dump, where the triage
// runbook fetches a site's flight bundle: the name may be left out while one
// dump is registered, and a miss lists the registered names.
func TestFlightDumpEndpoint(t *testing.T) {
	r := NewRegistry()
	mux := NewMux(r)
	get := func(query string) (int, string, http.Header) {
		t.Helper()
		w := httptest.NewRecorder()
		mux.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/debug/flight/dump"+query, nil))
		return w.Code, w.Body.String(), w.Header()
	}
	dump := func(body string) func(io.Writer) error {
		return func(w io.Writer) error { _, err := io.WriteString(w, body); return err }
	}

	if code, _, _ := get(""); code != http.StatusNotFound {
		t.Errorf("no dump registered: status %d, want 404", code)
	}
	r.AddDump("site0", dump("bundle-0"))
	code, body, h := get("")
	if code != http.StatusOK || body != "bundle-0" || !strings.Contains(h.Get("Content-Disposition"), "attachment") {
		t.Errorf("sole dump, no name: %d %q %q, want 200, bundle-0, an attachment", code, body, h.Get("Content-Disposition"))
	}
	r.AddDump("site1", dump("bundle-1"))
	if code, body, _ := get("?name=site1"); code != http.StatusOK || body != "bundle-1" {
		t.Errorf("?name=site1: %d %q, want 200 bundle-1", code, body)
	}
	if code, body, _ := get(""); code != http.StatusNotFound || !strings.Contains(body, "[site0 site1]") {
		t.Errorf("two dumps, no name: %d %q, want 404 naming both", code, body)
	}
}

func TestRegistryConcurrentReads(t *testing.T) {
	r := NewRegistry()
	cs := make([]atomic.Int64, 8)
	for i := range cs {
		c := &cs[i]
		r.CounterFunc(fmt.Sprintf("c%d", i), nil, "", func() float64 { return float64(c.Load()) })
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := range cs {
		c := &cs[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					c.Add(1)
				}
			}
		}()
	}
	for i := 0; i < 200; i++ {
		_ = r.Snapshot()
		_ = r.WritePrometheus(io.Discard)
	}
	close(stop)
	wg.Wait()
}
