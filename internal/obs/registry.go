package obs

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Labels name one series of a metric, e.g. {"site": "0"}.
type Labels map[string]string

// Key builds the canonical series key — `name` or `name{k="v",...}` with
// label keys sorted — used both in Prometheus rendering and in Snapshot maps.
func Key(name string, labels Labels) string {
	if len(labels) == 0 {
		return name
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(strconv.Quote(labels[k]))
	}
	b.WriteByte('}')
	return b.String()
}

// SiteLabels returns the conventional per-site label set.
func SiteLabels(site int) Labels { return Labels{"site": strconv.Itoa(site)} }

// Snapshot is a point-in-time reading of every registered series, keyed by
// Key(name, labels). Histograms contribute `<key>_count` and `<key>_sum`
// entries. Because each series is read independently (lock-free atomics or
// the owner's own mutex), a snapshot is not a consistent cut across series —
// it is a monitoring view, not a transaction.
type Snapshot map[string]float64

// Delta returns the per-key difference cur - prev (keys only in cur keep
// their value; keys only in prev are dropped).
func (cur Snapshot) Delta(prev Snapshot) Snapshot {
	out := make(Snapshot, len(cur))
	for k, v := range cur {
		out[k] = v - prev[k]
	}
	return out
}

type series struct {
	key  string
	name string
	help string
	kind string // "gauge" or "counter"
	read func() float64
}

type histSeries struct {
	name   string
	labels Labels
	key    string
	help   string
	h      *Histogram
}

type tracerEntry struct {
	name string
	t    *Tracer
}

type muxEntry struct {
	pattern string
	h       http.Handler
}

type dumpEntry struct {
	name string
	fn   func(io.Writer) error
}

// Registry names live metric sources. Registration happens at session setup;
// reads (Snapshot, WritePrometheus) happen at any time from any goroutine,
// including while the session's hot path keeps writing the underlying
// counters. The registry itself holds no metric state — every series is a
// closure over the owning component's counters, so "the registry" and "the
// component's stats" can never disagree.
type Registry struct {
	mu      sync.Mutex
	series  []*series
	hists   []*histSeries
	tracers []tracerEntry
	dumps   []dumpEntry
	extra   []muxEntry
	health  *Health
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

func (r *Registry) add(s *series) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, old := range r.series {
		if old.key == s.key {
			panic("obs: duplicate series " + s.key)
		}
	}
	r.series = append(r.series, s)
}

// GaugeFunc registers a gauge whose value is read live from fn.
func (r *Registry) GaugeFunc(name string, labels Labels, help string, fn func() float64) {
	r.add(&series{key: Key(name, labels), name: name, help: help, kind: "gauge", read: fn})
}

// CounterFunc registers a monotonic counter whose value is read live from fn.
func (r *Registry) CounterFunc(name string, labels Labels, help string, fn func() float64) {
	r.add(&series{key: Key(name, labels), name: name, help: help, kind: "counter", read: fn})
}

// NewHistogram registers and returns an owned Histogram.
func (r *Registry) NewHistogram(name string, labels Labels, help string) *Histogram {
	h := &Histogram{}
	r.AddHistogram(name, labels, help, h)
	return h
}

// AddHistogram registers an externally owned Histogram (e.g. one a component
// must create before any registry exists, like the relay daemon's step-time
// series).
func (r *Registry) AddHistogram(name string, labels Labels, help string, h *Histogram) {
	copied := make(Labels, len(labels))
	for k, v := range labels {
		copied[k] = v
	}
	hs := &histSeries{name: name, labels: copied, key: Key(name, labels), help: help, h: h}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, old := range r.hists {
		if old.key == hs.key {
			panic("obs: duplicate histogram " + hs.key)
		}
	}
	r.hists = append(r.hists, hs)
}

// AddTracer attaches a tracer to the registry so the HTTP trace endpoint can
// export it. Tracers merged into one export should share an epoch.
func (r *Registry) AddTracer(name string, t *Tracer) {
	if t == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.tracers = append(r.tracers, tracerEntry{name: name, t: t})
}

// Tracers returns the attached tracers in registration order.
func (r *Registry) Tracers() []*Tracer {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*Tracer, 0, len(r.tracers))
	for _, e := range r.tracers {
		out = append(out, e.t)
	}
	return out
}

// AddDump registers a named binary dump producer (e.g. a flight recorder's
// incident bundle), served on demand at /debug/flight/dump. fn is invoked
// from the HTTP goroutine and must be safe to call while the session runs.
func (r *Registry) AddDump(name string, fn func(io.Writer) error) {
	if fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.dumps = append(r.dumps, dumpEntry{name: name, fn: fn})
}

// DumpNames returns the registered dump names in registration order.
func (r *Registry) DumpNames() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, 0, len(r.dumps))
	for _, d := range r.dumps {
		out = append(out, d.name)
	}
	return out
}

// dump looks a dump producer up by name; an empty name selects the sole
// registered dump (the common single-session case).
func (r *Registry) dump(name string) (func(io.Writer) error, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if name == "" && len(r.dumps) == 1 {
		return r.dumps[0].fn, true
	}
	for _, d := range r.dumps {
		if d.name == name {
			return d.fn, true
		}
	}
	return nil, false
}

// DumpHandler serves registered dumps: /debug/flight/dump?name=<name> streams
// one as an attachment (name optional when only one is registered).
func (r *Registry) DumpHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		name := req.URL.Query().Get("name")
		fn, ok := r.dump(name)
		if !ok {
			http.Error(w, fmt.Sprintf("no flight dump %q (registered: %v)", name, r.DumpNames()),
				http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Disposition", `attachment; filename="flight.rkfb"`)
		_ = fn(w)
	})
}

// Handle registers an extra HTTP handler that NewMux mounts alongside the
// standard endpoints (e.g. the relay fleet's /sessions surface). Patterns
// follow http.ServeMux semantics; registering the same pattern twice panics
// when the mux is built, so components should pick namespaced paths.
func (r *Registry) Handle(pattern string, h http.Handler) {
	if h == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.extra = append(r.extra, muxEntry{pattern: pattern, h: h})
}

// ExtraHandlers returns the handlers registered via Handle, in order.
func (r *Registry) ExtraHandlers() []struct {
	Pattern string
	Handler http.Handler
} {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]struct {
		Pattern string
		Handler http.Handler
	}, 0, len(r.extra))
	for _, e := range r.extra {
		out = append(out, struct {
			Pattern string
			Handler http.Handler
		}{e.pattern, e.h})
	}
	return out
}

// VisitSeries calls fn for every registered scalar series (kind "gauge" or
// "counter"), in registration order. The read closures stay live after the
// visit — this is how the history store binds retention to a registry
// without the registry knowing about retention.
func (r *Registry) VisitSeries(fn func(key, kind string, read func() float64)) {
	r.mu.Lock()
	ser := append([]*series(nil), r.series...)
	r.mu.Unlock()
	for _, s := range ser {
		fn(s.key, s.kind, s.read)
	}
}

// VisitHistograms calls fn for every registered histogram, in registration
// order.
func (r *Registry) VisitHistograms(fn func(key string, h *Histogram)) {
	r.mu.Lock()
	hists := append([]*histSeries(nil), r.hists...)
	r.mu.Unlock()
	for _, hs := range hists {
		fn(hs.key, hs.h)
	}
}

// SetHealth attaches a health SLO engine; the registry's mux then serves
// its verdict at /healthz. The last attached engine wins.
func (r *Registry) SetHealth(h *Health) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.health = h
}

// Health returns the attached health engine (nil when none).
func (r *Registry) Health() *Health {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.health
}

// HealthHandler serves the attached engine's verdict as JSON: HTTP 200 for
// healthy/degraded, 503 for infeasible (load-balancer friendly), 404 when no
// engine is attached.
func (r *Registry) HealthHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		h := r.Health()
		if h == nil {
			http.Error(w, "no health engine attached", http.StatusNotFound)
			return
		}
		sig := h.Signals()
		w.Header().Set("Content-Type", "application/json")
		// A verdict is only good for the instant it was served: without an
		// explicit no-store, an intermediary (or a browser re-sniffing the
		// body) can keep answering from a stale copy.
		w.Header().Set("Cache-Control", "no-store")
		if sig.State == Infeasible {
			w.WriteHeader(http.StatusServiceUnavailable)
		}
		fmt.Fprintf(w, `{"state":%q,"window":%d,"rtt_p50_ns":%d,"skew_q_ns":%d,"frame_mean_ns":%d,"retrans_per_frame":%g,"transitions":%d}`+"\n",
			sig.StateName, sig.Window, sig.RTTp50, sig.SkewQ, sig.FrameMean, sig.RetransPerFrame, sig.Transitions)
	})
}

// Snapshot reads every series once.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	ser := append([]*series(nil), r.series...)
	hists := append([]*histSeries(nil), r.hists...)
	r.mu.Unlock()
	out := make(Snapshot, len(ser)+2*len(hists))
	for _, s := range ser {
		out[s.key] = s.read()
	}
	for _, hs := range hists {
		out[hs.key+"_count"] = float64(hs.h.Count())
		out[hs.key+"_sum"] = float64(hs.h.Sum())
	}
	return out
}

// WritePrometheus renders every series in the Prometheus text exposition
// format (version 0.0.4). Series are sorted by name for a stable output;
// histograms render cumulative power-of-two `le` buckets.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	ser := append([]*series(nil), r.series...)
	hists := append([]*histSeries(nil), r.hists...)
	r.mu.Unlock()

	sort.Slice(ser, func(i, j int) bool {
		if ser[i].name != ser[j].name {
			return ser[i].name < ser[j].name
		}
		return ser[i].key < ser[j].key
	})
	var b strings.Builder
	lastName := ""
	for _, s := range ser {
		if s.name != lastName {
			lastName = s.name
			if s.help != "" {
				fmt.Fprintf(&b, "# HELP %s %s\n", s.name, s.help)
			}
			fmt.Fprintf(&b, "# TYPE %s %s\n", s.name, s.kind)
		}
		fmt.Fprintf(&b, "%s %s\n", s.key, formatFloat(s.read()))
	}

	sort.Slice(hists, func(i, j int) bool {
		if hists[i].name != hists[j].name {
			return hists[i].name < hists[j].name
		}
		return hists[i].key < hists[j].key
	})
	lastName = ""
	for _, hs := range hists {
		if hs.name != lastName {
			lastName = hs.name
			if hs.help != "" {
				fmt.Fprintf(&b, "# HELP %s %s\n", hs.name, hs.help)
			}
			fmt.Fprintf(&b, "# TYPE %s histogram\n", hs.name)
		}
		counts := hs.h.Buckets()
		hi := 0
		for i, c := range counts {
			if c > 0 {
				hi = i
			}
		}
		le := make(Labels, len(hs.labels)+1)
		for k, v := range hs.labels {
			le[k] = v
		}
		var cum int64
		for i := 0; i <= hi; i++ {
			cum += counts[i]
			le["le"] = strconv.FormatUint(BucketBound(i), 10)
			fmt.Fprintf(&b, "%s %d\n", Key(hs.name+"_bucket", le), cum)
		}
		le["le"] = "+Inf"
		fmt.Fprintf(&b, "%s %d\n", Key(hs.name+"_bucket", le), hs.h.Count())
		fmt.Fprintf(&b, "%s %d\n", Key(hs.name+"_sum", hs.labels), hs.h.Sum())
		fmt.Fprintf(&b, "%s %d\n", Key(hs.name+"_count", hs.labels), hs.h.Count())
	}
	_, err := io.WriteString(w, b.String())
	return err
}

func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Handler serves the registry in Prometheus text format.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}

// TraceHandler serves the attached tracers, merged, as Chrome trace_event
// JSON (?format=jsonl selects JSONL instead).
func (r *Registry) TraceHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		tracers := r.Tracers()
		var events []Event
		for _, t := range tracers {
			events = append(events, t.Snapshot()...)
		}
		sort.SliceStable(events, func(i, j int) bool { return events[i].At < events[j].At })
		if req.URL.Query().Get("format") == "jsonl" {
			w.Header().Set("Content-Type", "application/jsonl")
			for _, e := range events {
				fmt.Fprintf(w, `{"at_ns":%d,"kind":%q,"site":%d,"frame":%d,"arg":%d}`+"\n",
					e.At, e.Kind.String(), e.Site, e.Frame, e.Arg)
			}
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_ = WriteChromeTrace(w, events)
	})
}
