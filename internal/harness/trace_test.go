package harness

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"pacifier/internal/obs"
)

// traceSpecs are small, fast jobs that still exercise record + replay.
func traceSpecs() []JobSpec {
	return []JobSpec{
		{Kind: "litmus", Name: "sb", Seed: 1, Atomic: true,
			Modes: []string{"gra"}, Replay: true, CaptureMetrics: true},
		{Kind: "litmus", Name: "mp", Seed: 1, Atomic: true,
			Modes: []string{"gra"}, Replay: true, CaptureMetrics: true},
		{Kind: "app", Name: "fft", Cores: 4, Ops: 120, Seed: 1, Atomic: true,
			Modes: []string{"karma", "gra"}, Replay: true, CaptureMetrics: true},
		{Kind: "app", Name: "lu", Cores: 4, Ops: 120, Seed: 2, Atomic: true,
			Modes: []string{"gra"}, Replay: true},
	}
}

// TestSweepTracedConcurrent drives traced, metrics-capturing jobs
// through the worker pool with maximum parallelism. Under -race this
// pins down the tracer's concurrency contract: many simulations
// emitting into per-job tracers at once, with trace files landing
// atomically. It also checks the artifacts themselves: every executed
// job leaves a valid Chrome trace named by its spec hash, and every
// metrics-capturing job carries a versioned snapshot.
func TestSweepTracedConcurrent(t *testing.T) {
	specs := traceSpecs()
	dir := t.TempDir()
	outcomes := Run(specs, Options{Workers: len(specs), TraceDir: dir})
	for _, o := range outcomes {
		if o.Err != nil {
			t.Fatalf("job %s: %v", o.Spec.Label(), o.Err)
		}
		path := filepath.Join(dir, o.Hash+".trace.json")
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("job %s left no trace file: %v", o.Spec.Label(), err)
		}
		if err := obs.ValidateChromeTrace(blob); err != nil {
			t.Errorf("job %s trace invalid: %v", o.Spec.Label(), err)
		}
		if o.Spec.CaptureMetrics {
			if o.Result.Metrics == nil {
				t.Errorf("job %s: CaptureMetrics set but Result.Metrics nil", o.Spec.Label())
			} else if len(o.Result.Metrics.Histograms) == 0 {
				t.Errorf("job %s: metrics snapshot has no histograms", o.Spec.Label())
			}
		} else if o.Result.Metrics != nil {
			t.Errorf("job %s: unexpected metrics snapshot", o.Spec.Label())
		}
	}
	// Temp files from the atomic writes must all be gone.
	leftovers, _ := filepath.Glob(filepath.Join(dir, ".*tmp*"))
	if len(leftovers) != 0 {
		t.Errorf("leftover temp files: %v", leftovers)
	}
}

// TestTracedResultsMatchUntraced checks that attaching a tracer and
// capturing metrics does not perturb the simulation: the deterministic
// Result fields must be identical with and without observability.
func TestTracedResultsMatchUntraced(t *testing.T) {
	spec := JobSpec{Kind: "app", Name: "fft", Cores: 4, Ops: 120, Seed: 1,
		Atomic: true, Modes: []string{"gra"}, Replay: true}
	plain, err := Execute(spec)
	if err != nil {
		t.Fatal(err)
	}
	traced, err := ExecuteTraced(spec, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if plain.NativeCycles != traced.NativeCycles || plain.MemOps != traced.MemOps {
		t.Errorf("tracing changed the execution: cycles %d vs %d, ops %d vs %d",
			plain.NativeCycles, traced.NativeCycles, plain.MemOps, traced.MemOps)
	}
	if len(plain.Modes) != len(traced.Modes) {
		t.Fatalf("mode counts differ")
	}
	for i := range plain.Modes {
		// ModeResult holds a pointer (Replay), so compare deeply.
		if !reflect.DeepEqual(plain.Modes[i], traced.Modes[i]) {
			t.Errorf("mode %s results differ with tracing: %+v vs %+v",
				plain.Modes[i].Mode, plain.Modes[i], traced.Modes[i])
		}
	}
}
