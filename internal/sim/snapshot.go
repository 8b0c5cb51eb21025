package sim

import (
	"encoding/json"
	"math"
	"math/bits"
	"sort"
)

// SchemaVersion is the single version constant shared by every
// machine-readable JSON artifact the toolchain emits: Stats.Snapshot()
// metrics files, Chrome trace files (internal/obs), and
// `pacifier verify -json` reports. Downstream tooling gates on it; bump
// it whenever any of those formats changes shape.
const SchemaVersion = 2

// HistBuckets is the number of log2 buckets a Histogram carries: bucket
// 0 holds the sample 0, bucket i (i >= 1) holds samples v with
// 2^(i-1) <= v < 2^i. The largest int64 is 2^63 - 1, whose bit length
// is 63, so buckets 0..63 cover every non-negative int64.
const HistBuckets = 64

// Histogram is a log2-bucketed distribution of non-negative samples
// (cycle counts, chunk sizes, ...). Like the rest of Stats it is not
// safe for concurrent use.
type Histogram struct {
	Name    string
	Count   int64
	Sum     int64
	Min     int64
	Max     int64
	Buckets [HistBuckets]int64
}

// BucketIndex returns the bucket a sample lands in: bits.Len64(v), so
// 0 -> 0, 1 -> 1, 2..3 -> 2, 4..7 -> 3, and so on. Negative samples
// are clamped to 0 (they cannot occur in a well-formed simulation but
// must not corrupt the table).
func BucketIndex(v int64) int {
	if v <= 0 {
		if v == 0 {
			return 0
		}
		return 0
	}
	return bits.Len64(uint64(v))
}

// BucketBounds returns the inclusive [lo, hi] sample range of bucket i.
func BucketBounds(i int) (lo, hi int64) {
	if i <= 0 {
		return 0, 0
	}
	lo = int64(1) << (i - 1)
	if i >= 63 {
		// The top bucket holds [2^62, max int64]; 1<<63 overflows.
		return lo, math.MaxInt64
	}
	return lo, int64(1)<<i - 1
}

// Observe adds one sample.
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	if h.Count == 0 || v < h.Min {
		h.Min = v
	}
	if v > h.Max {
		h.Max = v
	}
	h.Count++
	h.Sum += v
	h.Buckets[BucketIndex(v)]++
}

// merge adds o's samples to h.
func (h *Histogram) merge(o *Histogram) {
	if o.Count == 0 {
		return
	}
	if h.Count == 0 || o.Min < h.Min {
		h.Min = o.Min
	}
	h.Max = max(h.Max, o.Max)
	h.Count += o.Count
	h.Sum += o.Sum
	for i, c := range o.Buckets {
		h.Buckets[i] += c
	}
}

// Mean returns the average sample (0 for an empty histogram).
func (h *Histogram) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// ---------------------------------------------------------------------
// Deterministic snapshot
// ---------------------------------------------------------------------

// CounterSnap is one counter in a Snapshot.
type CounterSnap struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugeSnap is one gauge in a Snapshot.
type GaugeSnap struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
	Max   int64  `json:"max"`
}

// BucketSnap is one non-empty histogram bucket: Count samples in the
// inclusive range [Lo, Hi].
type BucketSnap struct {
	Lo    int64 `json:"lo"`
	Hi    int64 `json:"hi"`
	Count int64 `json:"count"`
}

// HistogramSnap is one histogram in a Snapshot; only non-empty buckets
// are kept.
type HistogramSnap struct {
	Name    string       `json:"name"`
	Count   int64        `json:"count"`
	Sum     int64        `json:"sum"`
	Min     int64        `json:"min"`
	Max     int64        `json:"max"`
	Buckets []BucketSnap `json:"buckets,omitempty"`
}

// Snapshot is the versioned, deterministic export form of a Stats
// registry: every slice is sorted by name, no maps are marshalled, and
// nothing depends on wall-clock time — two identical runs produce
// byte-identical Encode() output.
type Snapshot struct {
	SchemaVersion int             `json:"schema_version"`
	Counters      []CounterSnap   `json:"counters"`
	Gauges        []GaugeSnap     `json:"gauges"`
	Histograms    []HistogramSnap `json:"histograms"`
}

// Histogram returns (creating if needed) the histogram with the given
// name.
func (s *Stats) Histogram(name string) *Histogram {
	h, ok := s.histograms[name]
	if !ok {
		h = &Histogram{Name: name}
		s.histograms[name] = h
	}
	return h
}

// Observe adds one sample to the named histogram.
func (s *Stats) Observe(name string, v int64) { s.Histogram(name).Observe(v) }

// Snapshot captures the registry's current state in deterministic
// (name-sorted) order.
func (s *Stats) Snapshot() *Snapshot {
	snap := &Snapshot{
		SchemaVersion: SchemaVersion,
		Counters:      []CounterSnap{},
		Gauges:        []GaugeSnap{},
		Histograms:    []HistogramSnap{},
	}
	for _, n := range s.Names() {
		c := s.counters[n]
		snap.Counters = append(snap.Counters, CounterSnap{Name: c.Name, Value: c.Value})
	}
	gnames := make([]string, 0, len(s.gauges))
	for n := range s.gauges {
		gnames = append(gnames, n)
	}
	sort.Strings(gnames)
	for _, n := range gnames {
		g := s.gauges[n]
		snap.Gauges = append(snap.Gauges, GaugeSnap{Name: g.Name, Value: g.Value, Max: g.Max})
	}
	hnames := make([]string, 0, len(s.histograms))
	for n := range s.histograms {
		hnames = append(hnames, n)
	}
	sort.Strings(hnames)
	for _, n := range hnames {
		h := s.histograms[n]
		hs := HistogramSnap{Name: h.Name, Count: h.Count, Sum: h.Sum, Min: h.Min, Max: h.Max}
		for i, c := range h.Buckets {
			if c == 0 {
				continue
			}
			lo, hi := BucketBounds(i)
			hs.Buckets = append(hs.Buckets, BucketSnap{Lo: lo, Hi: hi, Count: c})
		}
		snap.Histograms = append(snap.Histograms, hs)
	}
	return snap
}

// Encode renders the snapshot as indented JSON with a trailing newline.
// The output is byte-identical across runs with identical inputs.
func (sn *Snapshot) Encode() ([]byte, error) {
	b, err := json.MarshalIndent(sn, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// RestoreStats inverts Snapshot: it rebuilds a live registry whose
// counters, gauges and histograms carry exactly the snapshotted values,
// so Restore(s.Snapshot()).Snapshot() == s.Snapshot(). Histogram buckets
// recover their index from each bucket's lower bound (BucketIndex(Lo)
// is the inverse of BucketBounds for every bucket the snapshotter
// emits). The replay debugger uses this to rewind metric registries to
// a checkpointed position.
func (sn *Snapshot) RestoreStats() *Stats {
	st := NewStats()
	for _, c := range sn.Counters {
		st.Counter(c.Name).Value = c.Value
	}
	for _, g := range sn.Gauges {
		rg := st.Gauge(g.Name)
		rg.Value = g.Value
		rg.Max = g.Max
	}
	for _, h := range sn.Histograms {
		rh := st.Histogram(h.Name)
		rh.Count = h.Count
		rh.Sum = h.Sum
		rh.Min = h.Min
		rh.Max = h.Max
		for _, b := range h.Buckets {
			rh.Buckets[BucketIndex(b.Lo)] = b.Count
		}
	}
	return st
}
