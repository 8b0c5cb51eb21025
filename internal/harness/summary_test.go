package harness

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// TestSummaryHitRateGuardsZeroCompleted pins the interrupted-sweep
// edge: a sweep cancelled before any job finishes has zero completed
// jobs, and its cache hit rate must be exactly 0 — never NaN, which
// would poison the JSONL summary record.
func TestSummaryHitRateGuardsZeroCompleted(t *testing.T) {
	specs := testSpecs()[:3]
	outcomes := make([]Outcome, len(specs))
	for i, s := range specs {
		outcomes[i] = Outcome{Spec: s, Hash: s.Hash(),
			Err: fmt.Errorf("%w: %s", ErrInterrupted, s.Label())}
	}
	sum := Summarize(outcomes)
	if sum.Interrupted != len(specs) || sum.Succeeded != 0 || sum.Failed != 0 {
		t.Fatalf("all-interrupted sweep summarized wrong: %+v", sum)
	}
	if math.IsNaN(sum.CacheHitRate) || sum.CacheHitRate != 0 {
		t.Fatalf("cache hit rate on zero completed jobs = %v, want 0", sum.CacheHitRate)
	}
	if err := WriteSummaryJSONL(&strings.Builder{}, sum); err != nil {
		t.Fatalf("interrupted summary not JSON-encodable: %v", err)
	}
}

// TestSummaryHitRate covers the normal rate path.
func TestSummaryHitRate(t *testing.T) {
	specs := testSpecs()[:4]
	outcomes := []Outcome{
		{Spec: specs[0], Hash: specs[0].Hash(), Result: &Result{}, Cached: true},
		{Spec: specs[1], Hash: specs[1].Hash(), Result: &Result{}, Cached: true},
		{Spec: specs[2], Hash: specs[2].Hash(), Result: &Result{}},
		{Spec: specs[3], Hash: specs[3].Hash(), Err: fmt.Errorf("boom")},
	}
	sum := Summarize(outcomes)
	if sum.CacheHitRate != 0.5 {
		t.Fatalf("hit rate = %v, want 0.5 (2 hits / 4 completed)", sum.CacheHitRate)
	}
}
