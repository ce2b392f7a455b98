package main

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer: its name (layer.operation),
// its interval in nanoseconds since the run's trace origin, the span
// that caused it (0 for a root) and the job it belongs to. All spans
// of one job or session share Job.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Job    string `json:"job"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced run: every method is a no-op, so call sites need no
// branches.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	all    []span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span now and returns its ID.
func (t *tracer) begin(name string, parent int, job string) int {
	if t == nil {
		return 0
	}
	return t.add(name, parent, job, time.Now(), time.Time{})
}

// finish closes a span opened by begin.
func (t *tracer) finish(id int) {
	if t == nil || id == 0 {
		return
	}
	end := time.Since(t.origin).Nanoseconds()
	t.mu.Lock()
	t.all[id-1].End = end
	t.mu.Unlock()
}

// add records a span whose interval was measured elsewhere — a
// progress callback or a server-side timestamp, both on this
// process's clock. A zero end leaves the span open for finish.
func (t *tracer) add(name string, parent int, job string, start, end time.Time) int {
	if t == nil {
		return 0
	}
	s := span{Parent: parent, Name: name, Job: job, Start: start.Sub(t.origin).Nanoseconds()}
	if !end.IsZero() {
		s.End = end.Sub(t.origin).Nanoseconds()
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID = len(t.all) + 1
	t.all = append(t.all, s)
	return s.ID
}

// spans returns a copy of everything recorded.
func (t *tracer) spans() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.all...)
}

// nameStat is the summary of all spans sharing one name.
type nameStat struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

// summary is the self-time breakdown of a traced run. OverheadS is the
// traced run's job_s.p50 minus the last untraced run's, when known.
type summary struct {
	Names     []nameStat         `json:"names"`
	LayerSelf map[string]float64 `json:"layer_self_s"`
	OverheadS *float64           `json:"tracing_overhead_s,omitempty"`
}

// summarize computes every span's self time — its duration minus the
// part of its interval that its child spans cover — and totals it by
// span name and by layer (the name up to the first dot).
func summarize(spans []span) summary {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := make(map[string]*nameStat)
	sum := summary{LayerSelf: make(map[string]float64)}
	for _, s := range spans {
		self := float64(s.End-s.Start-covered(s, children[s.ID])) / 1e9
		ns := byName[s.Name]
		if ns == nil {
			ns = &nameStat{Name: s.Name}
			byName[s.Name] = ns
		}
		ns.Count++
		ns.TotalS += s.seconds()
		ns.SelfS += self
		layer, _, _ := strings.Cut(s.Name, ".")
		sum.LayerSelf[layer] += self
	}
	for _, ns := range byName {
		sum.Names = append(sum.Names, *ns)
	}
	sort.Slice(sum.Names, func(i, j int) bool { return sum.Names[i].Name < sum.Names[j].Name })
	return sum
}

// covered returns how many nanoseconds of parent's interval the union
// of the children's intervals covers.
func covered(parent span, kids []span) int64 {
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total, curLo, curHi int64
	open := false
	for _, v := range ivs {
		switch {
		case !open:
			curLo, curHi, open = v.lo, v.hi, true
		case v.lo > curHi:
			total += curHi - curLo
			curLo, curHi = v.lo, v.hi
		case v.hi > curHi:
			curHi = v.hi
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// print writes the summary as a table.
func (s summary) print(w io.Writer) {
	fmt.Fprintf(w, "%-34s %7s %12s %12s\n", "span", "count", "total_s", "self_s")
	for _, n := range s.Names {
		fmt.Fprintf(w, "%-34s %7d %12.4f %12.4f\n", n.Name, n.Count, n.TotalS, n.SelfS)
	}
	layers := make([]string, 0, len(s.LayerSelf))
	for l := range s.LayerSelf {
		layers = append(layers, l)
	}
	sort.Strings(layers)
	for _, l := range layers {
		fmt.Fprintf(w, "layer %-28s self_s %12.4f\n", l, s.LayerSelf[l])
	}
	if s.OverheadS != nil {
		fmt.Fprintf(w, "tracing overhead (job_s.p50 traced - untraced): %+.4f s\n", *s.OverheadS)
	} else {
		fmt.Fprintln(w, "tracing overhead: no untraced run of this workload in this checkout yet")
	}
}
