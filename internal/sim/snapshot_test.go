package sim

import (
	"bytes"
	"math"
	"testing"
)

// TestBucketIndexBoundaries pins the log2 bucketing down at every power
// of two: bucket 0 is the sample 0, bucket i (i >= 1) is [2^(i-1),
// 2^i - 1], bucket 64 absorbs everything up to max int64.
func TestBucketIndexBoundaries(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{-5, 0}, {0, 0},
		{1, 1},
		{2, 2}, {3, 2},
		{4, 3}, {7, 3},
		{8, 4}, {15, 4},
		{1 << 10, 11}, {1<<11 - 1, 11},
		{1 << 61, 62}, {1 << 62, 63},
		{math.MaxInt64, 63},
	}
	for _, c := range cases {
		if got := BucketIndex(c.v); got != c.want {
			t.Errorf("BucketIndex(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

// TestBucketBoundsRoundTrip checks that every bucket's bounds contain
// exactly the samples BucketIndex maps into it.
func TestBucketBoundsRoundTrip(t *testing.T) {
	for i := 0; i < HistBuckets; i++ {
		lo, hi := BucketBounds(i)
		if lo > hi {
			t.Fatalf("bucket %d: lo %d > hi %d", i, lo, hi)
		}
		if got := BucketIndex(lo); got != i {
			t.Errorf("bucket %d: BucketIndex(lo=%d) = %d", i, lo, got)
		}
		if got := BucketIndex(hi); got != i {
			t.Errorf("bucket %d: BucketIndex(hi=%d) = %d", i, hi, got)
		}
		// The neighbours must not leak in.
		if i+1 < HistBuckets {
			if got := BucketIndex(hi + 1); got != i+1 {
				t.Errorf("bucket %d: BucketIndex(hi+1=%d) = %d, want %d", i, hi+1, got, i+1)
			}
		}
	}
	if _, hi := BucketBounds(HistBuckets - 1); hi != math.MaxInt64 {
		t.Errorf("top bucket hi = %d, want MaxInt64", hi)
	}
}

func TestHistogramObserve(t *testing.T) {
	var h Histogram
	for _, v := range []int64{5, 0, 17, 5, -3} {
		h.Observe(v)
	}
	if h.Count != 5 {
		t.Fatalf("Count = %d, want 5", h.Count)
	}
	if h.Sum != 27 { // -3 clamps to 0
		t.Errorf("Sum = %d, want 27", h.Sum)
	}
	if h.Min != 0 || h.Max != 17 {
		t.Errorf("Min/Max = %d/%d, want 0/17", h.Min, h.Max)
	}
	if h.Buckets[0] != 2 { // 0 and clamped -3
		t.Errorf("bucket 0 = %d, want 2", h.Buckets[0])
	}
	if h.Buckets[BucketIndex(5)] != 2 {
		t.Errorf("bucket for 5 = %d, want 2", h.Buckets[BucketIndex(5)])
	}
	if got := h.Mean(); got != 27.0/5 {
		t.Errorf("Mean = %v", got)
	}
}

// TestSnapshotDeterministic builds two registries the same way through
// different insertion orders and requires byte-identical encodings.
func TestSnapshotDeterministic(t *testing.T) {
	build := func(order []string) *Stats {
		s := NewStats()
		for _, n := range order {
			s.Inc("counter."+n, int64(len(n)))
			s.Observe("hist."+n, int64(len(n)))
			s.Observe("hist."+n, 1000)
		}
		return s
	}
	a := build([]string{"alpha", "beta", "gamma"})
	b := build([]string{"gamma", "alpha", "beta"})

	ea, err := a.Snapshot().Encode()
	if err != nil {
		t.Fatal(err)
	}
	eb, err := b.Snapshot().Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ea, eb) {
		t.Fatalf("snapshots differ across insertion orders:\n%s\nvs\n%s", ea, eb)
	}
	snap := a.Snapshot()
	if snap.SchemaVersion != SchemaVersion {
		t.Errorf("SchemaVersion = %d, want %d", snap.SchemaVersion, SchemaVersion)
	}
	if len(snap.Histograms) != 3 {
		t.Fatalf("histograms = %d, want 3", len(snap.Histograms))
	}
	for _, h := range snap.Histograms {
		for _, b := range h.Buckets {
			if b.Count == 0 {
				t.Errorf("%s: empty bucket [%d,%d] exported", h.Name, b.Lo, b.Hi)
			}
		}
	}
}

// TestStatsFold: folding a second registry gives the snapshot the writes
// would have given made into one registry, for shared and disjoint
// names alike, including a histogram that never saw a sample.
func TestStatsFold(t *testing.T) {
	type write func(s *Stats)
	one := []write{
		func(s *Stats) { s.Inc("machine.c", 3) },
		func(s *Stats) { s.Observe("machine.h", 5) },
		func(s *Stats) { s.Gauge("machine.g").Set(4) },
		func(s *Stats) { s.Inc("shared.c", 1) },
		func(s *Stats) { s.Observe("shared.h", 70) },
	}
	two := []write{
		func(s *Stats) { s.Inc("record.c", 2) },
		func(s *Stats) { s.Histogram("record.empty") },
		func(s *Stats) { s.Observe("record.h", 0) },
		func(s *Stats) { s.Observe("record.h", 9) },
		func(s *Stats) { s.Inc("shared.c", 6) },
		func(s *Stats) { s.Observe("shared.h", 2) },
		func(s *Stats) { s.Observe("shared.h", 300) },
	}
	want, dst, src := NewStats(), NewStats(), NewStats()
	for _, w := range one {
		w(want)
		w(dst)
	}
	for _, w := range two {
		w(want)
		w(src)
	}
	dst.Fold(src)
	got, _ := dst.Snapshot().Encode()
	exp, _ := want.Snapshot().Encode()
	if !bytes.Equal(got, exp) {
		t.Fatalf("folded snapshot:\n%s\nwant:\n%s", got, exp)
	}
	if src.Get("shared.c") != 6 {
		t.Error("Fold changed its source")
	}
}
