package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the traced run.
type span struct {
	ID, Parent int // Parent 0: a root span
	Name       string
	Workload   string
	Iter       int // -1 in set-up
	Lane       int // Chrome thread id: concurrent harness jobs get their own
	Start, End time.Duration
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing; timing still works, which is how the untraced run measures.
type tracer struct {
	mu     sync.Mutex
	origin time.Time
	spans  []span
	lanes  []bool // lanes[i] busy; lane 0 is the workload's own goroutine
}

func newTracer() *tracer { return &tracer{origin: time.Now(), lanes: []bool{true}} }

// scope tags the spans of one workload iteration.
type scope struct {
	t        *tracer
	workload string
	iter     int
	lane     int
}

// mark is an open span.
type mark struct {
	id    int
	start time.Time
}

func (s *scope) begin(name string, parent mark) mark {
	m := mark{start: time.Now()}
	if s.t == nil {
		return m
	}
	s.t.mu.Lock()
	m.id = len(s.t.spans) + 1
	s.t.spans = append(s.t.spans, span{ID: m.id, Parent: parent.id, Name: name,
		Workload: s.workload, Iter: s.iter, Lane: s.lane, Start: m.start.Sub(s.t.origin)})
	s.t.mu.Unlock()
	return m
}

// end closes m and returns its duration.
func (s *scope) end(m mark) time.Duration {
	now := time.Now()
	if s.t != nil {
		s.t.mu.Lock()
		s.t.spans[m.id-1].End = now.Sub(s.t.origin)
		s.t.mu.Unlock()
	}
	return now.Sub(m.start)
}

// withLane returns a scope on a free lane, for a job running
// concurrently with its siblings, and a function releasing the lane.
func (s *scope) withLane() (*scope, func()) {
	if s.t == nil {
		return s, func() {}
	}
	s.t.mu.Lock()
	defer s.t.mu.Unlock()
	lane := 0
	for lane < len(s.t.lanes) && s.t.lanes[lane] {
		lane++
	}
	if lane == len(s.t.lanes) {
		s.t.lanes = append(s.t.lanes, false)
	}
	s.t.lanes[lane] = true
	c := *s
	c.lane = lane
	return &c, func() {
		s.t.mu.Lock()
		s.t.lanes[lane] = false
		s.t.mu.Unlock()
	}
}

// snapshot returns the spans recorded so far; none for a nil tracer.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// durations returns the durations of every span named name.
func durations(spans []span, name string) []time.Duration {
	var ds []time.Duration
	for _, sp := range spans {
		if sp.Name == name {
			ds = append(ds, sp.End-sp.Start)
		}
	}
	return ds
}

// selfTimes returns each span's duration minus the part of it that its
// children cover. Children of one span never overlap except harness jobs,
// which run on separate lanes; their union is what is subtracted.
func selfTimes(spans []span) []time.Duration {
	kids := make(map[int][]span)
	for _, sp := range spans {
		if sp.Parent != 0 {
			kids[sp.Parent] = append(kids[sp.Parent], sp)
		}
	}
	self := make([]time.Duration, len(spans))
	for i, sp := range spans {
		cs := kids[sp.ID]
		sort.Slice(cs, func(a, b int) bool { return cs[a].Start < cs[b].Start })
		var covered, reach time.Duration
		reach = sp.Start
		for _, c := range cs {
			if c.End <= reach {
				continue
			}
			from := c.Start
			if from < reach {
				from = reach
			}
			covered += c.End - from
			reach = c.End
		}
		self[i] = sp.End - sp.Start - covered
	}
	return self
}

// writeSelfTable prints, per workload and span name, the call count,
// total time and self time.
func writeSelfTable(w io.Writer, spans []span) {
	type row struct {
		wl, name    string
		n           int
		total, self time.Duration
	}
	self := selfTimes(spans)
	rows := map[string]*row{}
	var keys []string
	for i, sp := range spans {
		k := sp.Workload + "\x00" + sp.Name
		r := rows[k]
		if r == nil {
			r = &row{wl: sp.Workload, name: sp.Name}
			rows[k] = r
			keys = append(keys, k)
		}
		r.n++
		r.total += sp.End - sp.Start
		r.self += self[i]
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "%-12s %-18s %7s %12s %12s\n", "workload", "span", "calls", "total_ms", "self_ms")
	for _, k := range keys {
		r := rows[k]
		fmt.Fprintf(w, "%-12s %-18s %7d %12.3f %12.3f\n", r.wl, r.name, r.n, ms(r.total), ms(r.self))
	}
}

// writeChrome writes the spans as Chrome trace-event JSON, which Perfetto
// and chrome://tracing load: one process per workload, one thread per lane.
func writeChrome(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat,omitempty"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	pids := map[string]int{}
	var evs []event
	for _, sp := range spans {
		pid, ok := pids[sp.Workload]
		if !ok {
			pid = len(pids) + 1
			pids[sp.Workload] = pid
			evs = append(evs, event{Name: "process_name", Ph: "M", Pid: pid,
				Args: map[string]any{"name": sp.Workload}})
		}
		cat, _, _ := strings.Cut(sp.Name, ".")
		evs = append(evs, event{Name: sp.Name, Cat: cat, Ph: "X", Pid: pid, Tid: sp.Lane,
			Ts: float64(sp.Start.Nanoseconds()) / 1e3, Dur: float64((sp.End - sp.Start).Nanoseconds()) / 1e3,
			Args: map[string]any{"id": sp.ID, "parent": sp.Parent, "iteration": sp.Iter}})
	}
	blob, err := json.Marshal(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
