package sim

import (
	"fmt"
	"sort"
	"strings"
)

// Counter is a named monotone counter.
type Counter struct {
	Name  string
	Value int64
}

// Gauge tracks a value and its high watermark.
type Gauge struct {
	Name  string
	Value int64
	Max   int64
}

// Set changes the gauge and updates the watermark.
func (g *Gauge) Set(v int64) {
	g.Value = v
	if v > g.Max {
		g.Max = v
	}
}

// Add adjusts the gauge by delta and updates the watermark.
func (g *Gauge) Add(delta int64) { g.Set(g.Value + delta) }

// Stats is a registry of counters, gauges and histograms. It is not
// safe for concurrent use: each registry has one writer goroutine. A
// recording run keeps two — the machine's, and one the recorders write
// on their own goroutine (internal/core) — and folds the second into
// the first once the recorders have finished (Fold).
type Stats struct {
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewStats returns an empty registry.
func NewStats() *Stats {
	return &Stats{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns (creating if needed) the counter with the given name.
func (s *Stats) Counter(name string) *Counter {
	c, ok := s.counters[name]
	if !ok {
		c = &Counter{Name: name}
		s.counters[name] = c
	}
	return c
}

// Inc adds delta to the named counter.
func (s *Stats) Inc(name string, delta int64) {
	s.Counter(name).Value += delta
}

// Get returns the value of the named counter (0 if never touched).
func (s *Stats) Get(name string) int64 {
	if c, ok := s.counters[name]; ok {
		return c.Value
	}
	return 0
}

// Gauge returns (creating if needed) the gauge with the given name.
func (s *Stats) Gauge(name string) *Gauge {
	g, ok := s.gauges[name]
	if !ok {
		g = &Gauge{Name: name}
		s.gauges[name] = g
	}
	return g
}

// GaugeMax returns the high watermark of the named gauge (0 if absent).
func (s *Stats) GaugeMax(name string) int64 {
	if g, ok := s.gauges[name]; ok {
		return g.Max
	}
	return 0
}

// Fold adds every metric of src into s, creating the ones s lacks (even
// at zero, so the folded snapshot lists exactly the union of names):
// counters and gauge values are summed, gauge watermarks and histogram
// extremes combined, histogram samples and buckets summed. Folding a
// registry whose names s does not hold is therefore exact: s's
// snapshot afterwards is what it would be had src's writers written
// into s directly. src is left unchanged.
func (s *Stats) Fold(src *Stats) {
	for n, c := range src.counters {
		s.Counter(n).Value += c.Value
	}
	for n, g := range src.gauges {
		d := s.Gauge(n)
		d.Value += g.Value
		d.Max = max(d.Max, g.Max)
	}
	for n, h := range src.histograms {
		s.Histogram(n).merge(h)
	}
}

// Names returns all counter names in sorted order.
func (s *Stats) Names() []string {
	out := make([]string, 0, len(s.counters))
	for n := range s.counters {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// String renders the registry, one metric per line, sorted by name.
func (s *Stats) String() string {
	var b strings.Builder
	for _, n := range s.Names() {
		fmt.Fprintf(&b, "%s=%d\n", n, s.counters[n].Value)
	}
	gnames := make([]string, 0, len(s.gauges))
	for n := range s.gauges {
		gnames = append(gnames, n)
	}
	sort.Strings(gnames)
	for _, n := range gnames {
		g := s.gauges[n]
		fmt.Fprintf(&b, "%s=%d(max=%d)\n", n, g.Value, g.Max)
	}
	return b.String()
}
