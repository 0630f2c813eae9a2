package main

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// snapshot is one parsed /metrics scrape: scalar series by full key
// (name{labels}) plus histograms reassembled from their _bucket series.
type snapshot struct {
	scalars map[string]float64
	hists   map[string]*histSnap // keyed by name{labels-without-le}
}

// histSnap is one histogram series: cumulative counts per upper bound,
// sorted ascending, plus the _count total.
type histSnap struct {
	bounds []float64 // upper bounds (ns); +Inf last
	cum    []float64 // cumulative counts, parallel to bounds
	count  float64
}

// get returns a scalar by metric name and label subset match — the first
// series whose key starts with name and contains every given label pair.
func (s *snapshot) get(name string, labels ...string) (float64, bool) {
	for key, v := range s.scalars {
		if matchKey(key, name, labels) {
			return v, true
		}
	}
	return 0, false
}

// hist returns the histogram for a metric name and label subset.
func (s *snapshot) hist(name string, labels ...string) *histSnap {
	for key, h := range s.hists {
		if matchKey(key, name, labels) {
			return h
		}
	}
	return nil
}

func matchKey(key, name string, labels []string) bool {
	base, rest := key, ""
	if i := strings.IndexByte(key, '{'); i >= 0 {
		base, rest = key[:i], key[i:]
	}
	if base != name {
		return false
	}
	for _, l := range labels {
		if !strings.Contains(rest, l) {
			return false
		}
	}
	return true
}

// quantile returns the q-quantile upper bound over the histogram's lifetime
// counts (0 when empty).
func (h *histSnap) quantile(q float64) float64 {
	if h == nil || h.count == 0 {
		return 0
	}
	return quantileOf(h.bounds, h.cum, h.count, q)
}

// quantileSince returns the q-quantile of the window between two scrapes of
// the same histogram (0 when the window is empty). prev may be nil.
func (h *histSnap) quantileSince(prev *histSnap, q float64) float64 {
	if h == nil {
		return 0
	}
	if prev == nil || len(prev.cum) == 0 {
		return h.quantile(q)
	}
	cum := make([]float64, len(h.cum))
	for i := range h.cum {
		cum[i] = h.cum[i]
		// Buckets only appear in the text format once non-empty, so align
		// by bound, not by index: subtract prev's cumulative count at the
		// largest bound <= this one (cumulative counts make that the right
		// baseline even when prev never emitted this exact bucket).
		j := sort.SearchFloat64s(prev.bounds, h.bounds[i])
		if j < len(prev.bounds) && prev.bounds[j] == h.bounds[i] {
			cum[i] -= prev.cum[j]
		} else if j > 0 {
			cum[i] -= prev.cum[j-1]
		}
	}
	count := h.count - prev.count
	if count <= 0 {
		return 0
	}
	return quantileOf(h.bounds, cum, count, q)
}

func quantileOf(bounds, cum []float64, count, q float64) float64 {
	rank := q * count
	for i, c := range cum {
		if c >= rank && c > 0 {
			return bounds[i]
		}
	}
	if n := len(bounds); n > 0 {
		return bounds[n-1]
	}
	return 0
}

// parseMetrics reads a Prometheus text exposition into a snapshot. It
// understands exactly what obs.Registry.WritePrometheus emits: `key value`
// lines, comments, and histogram `_bucket`/`_sum`/`_count` triples.
func parseMetrics(r io.Reader) (*snapshot, error) {
	s := &snapshot{scalars: map[string]float64{}, hists: map[string]*histSnap{}}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		key, valStr := line[:sp], line[sp+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			return nil, fmt.Errorf("bad value in %q: %w", line, err)
		}
		name, labels := key, ""
		if i := strings.IndexByte(key, '{'); i >= 0 {
			name, labels = key[:i], key[i:]
		}
		switch {
		case strings.HasSuffix(name, "_bucket"):
			base := strings.TrimSuffix(name, "_bucket")
			le, rest := extractLE(labels)
			if le == "" {
				s.scalars[key] = val
				continue
			}
			h := histFor(s, base+rest)
			bound := inf
			if le != "+Inf" {
				if bound, err = strconv.ParseFloat(le, 64); err != nil {
					return nil, fmt.Errorf("bad le in %q: %w", line, err)
				}
			}
			h.bounds = append(h.bounds, bound)
			h.cum = append(h.cum, val)
		case strings.HasSuffix(name, "_sum"):
			// No panel shows a histogram's sum; skip it rather than file
			// it as a scalar that get's prefix match could return.
		case strings.HasSuffix(name, "_count"):
			histFor(s, strings.TrimSuffix(name, "_count")+labels).count = val
		default:
			s.scalars[key] = val
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	// The exposition writes buckets in ascending order; sort defensively so
	// quantileSince's alignment by bound stays correct regardless.
	for _, h := range s.hists {
		sort.Sort(byBound{h})
	}
	return s, sc.Err()
}

const inf = 1e300 // stand-in for le="+Inf"; beyond any real ns bound

func histFor(s *snapshot, key string) *histSnap {
	h := s.hists[key]
	if h == nil {
		h = &histSnap{}
		s.hists[key] = h
	}
	return h
}

// extractLE pulls the le="..." label out of a {label} block and returns the
// block with it removed (so bucket series of one histogram share a key).
func extractLE(labels string) (le, rest string) {
	if labels == "" {
		return "", ""
	}
	inner := strings.TrimSuffix(strings.TrimPrefix(labels, "{"), "}")
	parts := strings.Split(inner, ",")
	kept := parts[:0]
	for _, p := range parts {
		if v, ok := strings.CutPrefix(p, `le="`); ok {
			le = strings.TrimSuffix(v, `"`)
			continue
		}
		kept = append(kept, p)
	}
	if len(kept) == 0 {
		return le, ""
	}
	return le, "{" + strings.Join(kept, ",") + "}"
}

type byBound struct{ h *histSnap }

func (b byBound) Len() int           { return len(b.h.bounds) }
func (b byBound) Less(i, j int) bool { return b.h.bounds[i] < b.h.bounds[j] }
func (b byBound) Swap(i, j int) {
	b.h.bounds[i], b.h.bounds[j] = b.h.bounds[j], b.h.bounds[i]
	b.h.cum[i], b.h.cum[j] = b.h.cum[j], b.h.cum[i]
}
