package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Spans are recorded from the benchmark's own files, around the calls it
// makes (or lets the program make through an interface the benchmark
// implements) into each layer's public functions. They stay in memory until
// the run ends; writeSpans dumps them and layerSelf derives per-layer self
// time: a span's duration minus the part of it its children cover.

type span struct {
	Name   spanName
	Op     int32 // the op this span belongs to (session index, batch number)
	Parent int32 // index of the enclosing span in the same spanBuf, -1 at the root
	N      int32 // work units the call handled (datagrams in a batch), 0 when not applicable
	Start  int64 // ns since the buffer's epoch
	End    int64
}

// spanName indexes spanNames; spans carry the index so a traced session's
// few hundred thousand spans stay at 32 bytes each.
type spanName uint16

var spanNames []string

// newSpanName registers "layer.Call" once, at package initialisation.
func newSpanName(s string) spanName {
	spanNames = append(spanNames, s)
	return spanName(len(spanNames) - 1)
}

func (n spanName) String() string { return spanNames[n] }

// spanBuf collects the spans of one goroutine; nesting follows its call
// stack. A nil *spanBuf records nothing, so call sites need no tracing flag.
type spanBuf struct {
	Actor string
	epoch time.Time
	spans []span
	stack []int32
	op    int32
}

func newSpanBuf(actor string, epoch time.Time, capacity int) *spanBuf {
	return &spanBuf{Actor: actor, epoch: epoch, spans: make([]span, 0, capacity)}
}

func (b *spanBuf) setOp(op int) {
	if b != nil {
		b.op = int32(op)
	}
}

// begin opens a span and returns its handle for end.
func (b *spanBuf) begin(name spanName) int32 {
	if b == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(b.stack); n > 0 {
		parent = b.stack[n-1]
	}
	id := int32(len(b.spans))
	b.spans = append(b.spans, span{Name: name, Op: b.op, Parent: parent, Start: int64(time.Since(b.epoch))})
	b.stack = append(b.stack, id)
	return id
}

func (b *spanBuf) end(id int32) { b.endN(id, 0) }

func (b *spanBuf) endN(id int32, n int) {
	if b == nil {
		return
	}
	b.spans[id].End = int64(time.Since(b.epoch))
	b.spans[id].N = int32(n)
	b.stack = b.stack[:len(b.stack)-1]
}

// selfTimes returns, per span, its duration minus the union of the intervals
// its direct children cover (clipped to the span). Children may overlap each
// other — spans merged from concurrent callers do — so the union is taken,
// not the sum. A buffer recorded by one goroutine lists each span's children
// in start order, which one pass handles; anything else is sorted first.
func selfTimes(spans []span) []int64 {
	out := make([]int64, len(spans))
	reach := make([]int64, len(spans))     // end of the covered prefix of each span
	lastStart := make([]int64, len(spans)) // start of each span's latest child
	for i, s := range spans {
		out[i] = s.End - s.Start
		reach[i], lastStart[i] = s.Start, s.Start
	}
	for _, s := range spans {
		p := s.Parent
		if p < 0 {
			continue
		}
		if s.Start < lastStart[p] {
			return selfTimesSorted(spans)
		}
		lastStart[p] = s.Start
		out[p] -= uncovered(&reach[p], s, spans[p].End)
	}
	return out
}

// uncovered returns how much of child c, clipped to its parent's end, lies
// beyond *reach, and advances *reach past it.
func uncovered(reach *int64, c span, parentEnd int64) int64 {
	lo, hi := c.Start, c.End
	if lo < *reach {
		lo = *reach
	}
	if hi > parentEnd {
		hi = parentEnd
	}
	if hi <= lo {
		return 0
	}
	*reach = hi
	return hi - lo
}

func selfTimesSorted(spans []span) []int64 {
	kids := make(map[int32][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], i)
		}
	}
	out := make([]int64, len(spans))
	for i, s := range spans {
		out[i] = s.End - s.Start
		ks := kids[int32(i)]
		sort.Slice(ks, func(a, b int) bool { return spans[ks[a]].Start < spans[ks[b]].Start })
		reach := s.Start
		for _, k := range ks {
			out[i] -= uncovered(&reach, spans[k], s.End)
		}
	}
	return out
}

// spanAgg is one span name's totals over a run.
type spanAgg struct {
	Calls int64
	Total int64 // ns, children included
	Self  int64 // ns, children excluded
	N     int64 // summed work units
}

// selfPerCall is the mean self time of one call, in ns.
func (a spanAgg) selfPerCall() float64 {
	if a.Calls == 0 {
		return 0
	}
	return float64(a.Self) / float64(a.Calls)
}

// aggregate folds buffers into per-name totals.
func aggregate(bufs ...*spanBuf) map[spanName]spanAgg {
	out := make(map[spanName]spanAgg)
	for _, b := range bufs {
		if b == nil {
			continue
		}
		self := selfTimes(b.spans)
		for i, s := range b.spans {
			a := out[s.Name]
			a.Calls++
			a.Total += s.End - s.Start
			a.Self += self[i]
			a.N += int64(s.N)
			out[s.Name] = a
		}
	}
	return out
}

// layerOf maps a span name to its layer: the module name before the dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// layerSelf sums self time by layer.
func layerSelf(agg map[spanName]spanAgg) map[string]int64 {
	out := make(map[string]int64)
	for name, a := range agg {
		out[layerOf(name.String())] += a.Self
	}
	return out
}

// writeSpans dumps every buffer as CSV (actor,index,parent,op,name,start_ns,
// end_ns,n) and returns how many spans it wrote.
func writeSpans(path string, bufs []*spanBuf) (int, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, fmt.Errorf("write spans: %w", err)
	}
	w := bufio.NewWriterSize(f, 1<<20)
	n := 0
	fmt.Fprintln(w, "actor,index,parent,op,name,start_ns,end_ns,n")
	line := make([]byte, 0, 128)
	for _, b := range bufs {
		if b == nil {
			continue
		}
		for i, s := range b.spans {
			// A lossy session leaves a few hundred thousand spans; strconv
			// keeps the dump to a fraction of a second.
			line = append(line[:0], b.Actor...)
			for _, v := range [...]int64{int64(i), int64(s.Parent), int64(s.Op)} {
				line = strconv.AppendInt(append(line, ','), v, 10)
			}
			line = append(append(line, ','), s.Name.String()...)
			for _, v := range [...]int64{s.Start, s.End, int64(s.N)} {
				line = strconv.AppendInt(append(line, ','), v, 10)
			}
			w.Write(append(line, '\n')) // a failed write sticks and surfaces at Flush
			n++
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return n, fmt.Errorf("write spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return n, fmt.Errorf("write spans: %w", err)
	}
	return n, nil
}
