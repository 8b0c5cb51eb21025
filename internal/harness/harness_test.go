package harness

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"
)

// testSpecs is a small but representative fleet: several apps at two
// machine sizes plus litmus tests, all modes the figures use, with
// replay verification on.
func testSpecs() []JobSpec {
	var specs []JobSpec
	for _, app := range []string{"fft", "lu", "radix"} {
		for _, n := range []int{4, 8} {
			specs = append(specs, JobSpec{
				Kind: "app", Name: app, Cores: n, Ops: 300, Seed: 1,
				Atomic: true, Modes: []string{"karma", "vol", "gra"}, Replay: true,
			})
		}
	}
	for _, l := range []string{"sb", "mp"} {
		specs = append(specs, JobSpec{
			Kind: "litmus", Name: l, Seed: 1, Atomic: true,
			Modes: []string{"karma", "gra"}, Replay: true,
		})
	}
	return specs
}

func mustResults(t *testing.T, outcomes []Outcome) []*Result {
	t.Helper()
	for _, o := range Errs(outcomes) {
		t.Fatalf("job %s failed: %v", o.Spec.Label(), o.Err)
	}
	return Results(outcomes)
}

// TestParallelSerialDeterminism is the harness's load-bearing test: a
// serial sweep, a parallel sweep, and a parallel sweep over the same
// specs in reversed submission order must all encode to byte-identical
// canonical result sets. This is also the certificate that the
// simulator stack (Machine / trace / record / replay) shares no hidden
// mutable globals — any cross-job state would perturb at least one
// parallel schedule.
func TestParallelSerialDeterminism(t *testing.T) {
	specs := testSpecs()

	serial := mustResults(t, Run(specs, Options{Workers: 1}))
	parallel := mustResults(t, Run(specs, Options{Workers: 8}))

	reversed := make([]JobSpec, len(specs))
	for i, s := range specs {
		reversed[len(specs)-1-i] = s
	}
	shuffled := mustResults(t, Run(reversed, Options{Workers: 8}))

	enc := func(rs []*Result) []byte {
		b, err := EncodeCanonical(rs)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b, c := enc(serial), enc(parallel), enc(shuffled)
	if !bytes.Equal(a, b) {
		t.Fatalf("parallel sweep diverged from serial sweep:\nserial %d bytes, parallel %d bytes", len(a), len(b))
	}
	if !bytes.Equal(a, c) {
		t.Fatal("submission-order-reversed parallel sweep diverged from serial sweep")
	}
	if len(serial) != len(specs) {
		t.Fatalf("got %d results for %d specs", len(serial), len(specs))
	}
}

// TestRunOutcomesInSpecOrder pins the Outcome-slice contract: index i
// belongs to specs[i] regardless of completion order.
func TestRunOutcomesInSpecOrder(t *testing.T) {
	specs := testSpecs()
	outcomes := Run(specs, Options{Workers: 4})
	for i, o := range outcomes {
		if o.Spec.Label() != specs[i].Label() {
			t.Fatalf("outcome %d is for %s, want %s", i, o.Spec.Label(), specs[i].Label())
		}
		if o.Hash != specs[i].Hash() {
			t.Fatalf("outcome %d hash mismatch", i)
		}
	}
}

func TestSpecHashIdentity(t *testing.T) {
	a := JobSpec{Kind: "app", Name: "fft", Cores: 8, Ops: 300, Seed: 1, Atomic: true, Modes: []string{"gra"}}
	b := a
	if a.Hash() != b.Hash() {
		t.Fatal("equal specs must hash equal")
	}
	// The hash is a job's name in JSONL output, trace file names and the
	// bench digests, so its bytes are pinned, salt included.
	const pinned = "e7622485c17b5955b2ed5a0c0f64bd75d8f26ae2501847938de048240b458590"
	if got := a.Hash(); got != pinned {
		t.Fatalf("spec hash = %s, want the pinned %s", got, pinned)
	}
	for _, mutate := range []func(*JobSpec){
		func(s *JobSpec) { s.Name = "lu" },
		func(s *JobSpec) { s.Cores = 16 },
		func(s *JobSpec) { s.Ops = 301 },
		func(s *JobSpec) { s.Seed = 2 },
		func(s *JobSpec) { s.Atomic = false },
		func(s *JobSpec) { s.MaxChunkOps = 128 },
		func(s *JobSpec) { s.Modes = []string{"gra", "karma"} },
		func(s *JobSpec) { s.Replay = true },
	} {
		c := a
		mutate(&c)
		if c.Hash() == a.Hash() {
			t.Fatalf("mutated spec %+v must not collide with %+v", c, a)
		}
	}
}

// fakeResult builds a deterministic Result without running a simulation.
func fakeResult(spec JobSpec) *Result {
	return &Result{Spec: spec, SpecHash: spec.Hash(), NativeCycles: 100, MemOps: 10,
		Modes: []ModeResult{{Mode: "gra", Chunks: 1}}}
}

// TestTimeoutFailsJobNotSweep wedges one job forever and checks that it
// alone is reported failed while every sibling completes.
func TestTimeoutFailsJobNotSweep(t *testing.T) {
	specs := []JobSpec{
		{Kind: "app", Name: "ok-1", Modes: []string{"gra"}},
		{Kind: "app", Name: "deadlocked", Modes: []string{"gra"}},
		{Kind: "app", Name: "ok-2", Modes: []string{"gra"}},
	}
	block := make(chan struct{})
	defer close(block) // release the wedged goroutine at test end
	outcomes := Run(specs, Options{
		Workers: 3,
		Timeout: 50 * time.Millisecond,
		Run: func(s JobSpec) (*Result, error) {
			if s.Name == "deadlocked" {
				<-block
			}
			return fakeResult(s), nil
		},
	})
	if err := outcomes[1].Err; err == nil || !strings.Contains(err.Error(), "timeout") {
		t.Fatalf("wedged job: err = %v, want timeout", err)
	}
	for _, i := range []int{0, 2} {
		if outcomes[i].Err != nil || outcomes[i].Result == nil {
			t.Fatalf("sibling job %s was disturbed: %v", specs[i].Name, outcomes[i].Err)
		}
	}
	if len(Results(outcomes)) != 2 || len(Errs(outcomes)) != 1 {
		t.Fatalf("want 2 results + 1 error, got %d + %d",
			len(Results(outcomes)), len(Errs(outcomes)))
	}
}

// TestPanicFailsJobNotSweep crashes one job and checks panic recovery.
func TestPanicFailsJobNotSweep(t *testing.T) {
	specs := []JobSpec{
		{Kind: "app", Name: "ok", Modes: []string{"gra"}},
		{Kind: "app", Name: "bomb", Modes: []string{"gra"}},
	}
	outcomes := Run(specs, Options{
		Workers: 2,
		Run: func(s JobSpec) (*Result, error) {
			if s.Name == "bomb" {
				panic("simulated deadlock detector tripped")
			}
			return fakeResult(s), nil
		},
	})
	if err := outcomes[1].Err; err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("bomb job: err = %v, want panic report", err)
	}
	if outcomes[0].Err != nil {
		t.Fatalf("sibling job failed: %v", outcomes[0].Err)
	}
}

// TestExecuteRejectsBadSpecs pins the validation errors jobs fail with.
func TestExecuteRejectsBadSpecs(t *testing.T) {
	for _, tc := range []struct {
		spec JobSpec
		want string
	}{
		{JobSpec{Kind: "app", Name: "fft", Cores: 4, Ops: 0, Seed: 1, Modes: []string{"gra"}}, "ops >= 1"},
		{JobSpec{Kind: "app", Name: "fft", Cores: 1, Ops: 10, Seed: 1, Modes: []string{"gra"}}, "cores >= 2"},
		{JobSpec{Kind: "app", Name: "nope", Cores: 4, Ops: 10, Seed: 1, Modes: []string{"gra"}}, "nope"},
		{JobSpec{Kind: "litmus", Name: "nope", Modes: []string{"gra"}}, "litmus"},
		{JobSpec{Kind: "weird", Name: "fft", Modes: []string{"gra"}}, "kind"},
		{JobSpec{Kind: "app", Name: "fft", Cores: 4, Ops: 10, Seed: 1}, "no recorder modes"},
		{JobSpec{Kind: "app", Name: "fft", Cores: 4, Ops: 10, Seed: 1, Modes: []string{"bogus"}}, "unknown mode"},
	} {
		_, err := Execute(tc.spec)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Execute(%+v): err = %v, want containing %q", tc.spec, err, tc.want)
		}
	}
}

// TestExecuteMetricsMatchFigures cross-checks one real job against the
// metrics the figure tables are built from.
func TestExecuteMetricsMatchFigures(t *testing.T) {
	spec := JobSpec{Kind: "app", Name: "radix", Cores: 8, Ops: 400, Seed: 1,
		Atomic: true, Modes: []string{"karma", "vol", "gra"}, Replay: true}
	res, err := Execute(spec)
	if err != nil {
		t.Fatal(err)
	}
	if res.SpecHash != spec.Hash() {
		t.Fatal("result not stamped with its spec hash")
	}
	if res.MemOps <= 0 || res.NativeCycles <= 0 {
		t.Fatalf("degenerate run: %d ops, %d cycles", res.MemOps, res.NativeCycles)
	}
	if len(res.Modes) != 3 {
		t.Fatalf("got %d mode results, want 3", len(res.Modes))
	}
	karma, gra := res.Mode("karma"), res.Mode("gra")
	if karma == nil || gra == nil {
		t.Fatal("karma/gra mode results missing")
	}
	if !gra.HasOverhead {
		t.Fatal("gra overhead vs co-recorded karma missing")
	}
	if gra.TotalBytes < karma.TotalBytes {
		t.Fatalf("gra log (%d B) smaller than karma log (%d B)", gra.TotalBytes, karma.TotalBytes)
	}
	if gra.Replay == nil || !gra.Replay.Deterministic {
		t.Fatalf("Granule replay not deterministic: %+v", gra.Replay)
	}
	if gra.Replay.OpsReplayed != res.MemOps {
		t.Fatalf("replayed %d of %d ops", gra.Replay.OpsReplayed, res.MemOps)
	}
}

func TestEmittersAreOrderIndependent(t *testing.T) {
	specs := []JobSpec{
		{Kind: "app", Name: "fft", Cores: 4, Ops: 200, Seed: 1, Atomic: true,
			Modes: []string{"karma", "vol", "gra"}, Replay: true},
		{Kind: "app", Name: "lu", Cores: 4, Ops: 200, Seed: 1, Atomic: true,
			Modes: []string{"karma", "vol", "gra"}, Replay: true},
	}
	results := mustResults(t, Run(specs, Options{Workers: 2}))
	flipped := []*Result{results[1], results[0]}

	for _, emit := range []struct {
		name string
		fn   func([]*Result) ([]byte, error)
	}{
		{"jsonl", func(rs []*Result) ([]byte, error) {
			var buf bytes.Buffer
			err := WriteJSONL(&buf, rs)
			return buf.Bytes(), err
		}},
		{"csv", func(rs []*Result) ([]byte, error) {
			var buf bytes.Buffer
			err := WriteCSV(&buf, rs)
			return buf.Bytes(), err
		}},
		{"canonical", EncodeCanonical},
		{"tables", func(rs []*Result) ([]byte, error) {
			var buf bytes.Buffer
			FigureTables(&buf, rs, 0)
			return buf.Bytes(), nil
		}},
	} {
		a, err := emit.fn(results)
		if err != nil {
			t.Fatalf("%s: %v", emit.name, err)
		}
		b, err := emit.fn(flipped)
		if err != nil {
			t.Fatalf("%s: %v", emit.name, err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s emitter output depends on result order", emit.name)
		}
		if len(a) == 0 {
			t.Errorf("%s emitter produced no output", emit.name)
		}
	}
}

func TestFigureTablesLayout(t *testing.T) {
	var specs []JobSpec
	for _, app := range []string{"fft", "radix"} {
		for _, n := range []int{4, 8} {
			specs = append(specs, JobSpec{Kind: "app", Name: app, Cores: n, Ops: 200,
				Seed: 1, Atomic: true, Modes: []string{"karma", "vol", "gra"}, Replay: true})
		}
	}
	results := mustResults(t, Run(specs, Options{Workers: 4}))
	var buf bytes.Buffer
	FigureTables(&buf, results, 0)
	out := buf.String()
	for _, w := range []string{
		"Figure 11: log size increase over Karma (%)",
		"Figure 12: replay slowdown vs native (%)",
		"Figure 13: maximum LHB entries occupied (16 configured)",
		"vol/p4", "gra/p8", "krm/p4",
		"fft", "radix", "average", "worst case:",
	} {
		if !strings.Contains(out, w) {
			t.Fatalf("figure tables missing %q in:\n%s", w, out)
		}
	}
	// Single-figure selection renders only that figure.
	buf.Reset()
	FigureTables(&buf, results, 13)
	if s := buf.String(); strings.Contains(s, "Figure 11") || !strings.Contains(s, "Figure 13") {
		t.Fatalf("fig=13 selection rendered wrong tables:\n%s", s)
	}
}

// TestProgressReporting checks the stderr stream: one line per job with
// running counts.
func TestProgressReporting(t *testing.T) {
	specs := testSpecs()[:4]
	var buf bytes.Buffer
	Run(specs, Options{Workers: 2, Logger: slog.New(slog.NewTextHandler(&buf, nil)),
		Run: func(s JobSpec) (*Result, error) { return fakeResult(s), nil }})
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != len(specs) {
		t.Fatalf("got %d progress lines for %d jobs:\n%s", len(lines), len(specs), buf.String())
	}
	last := lines[len(lines)-1]
	if !strings.Contains(last, fmt.Sprintf("%d/%d", len(specs), len(specs))) {
		t.Fatalf("final progress line lacks completion count: %q", last)
	}
}

// TestInterruptFlushesCompletedJobs checks the SIGINT contract: an
// interrupted sweep still returns every result that finished, and every
// job that never ran comes back marked ErrInterrupted — not lost, not
// reported as a simulation failure.
func TestInterruptFlushesCompletedJobs(t *testing.T) {
	specs := testSpecs()
	interrupt := make(chan struct{})
	started := make(chan struct{})
	go func() {
		<-started
		close(interrupt)
	}()
	var once sync.Once
	outcomes := Run(specs, Options{
		Workers:   1,
		Interrupt: interrupt,
		Run: func(s JobSpec) (*Result, error) {
			// Every job blocks until the interrupt fires, so the single
			// worker is provably busy when it does: the dispatcher's
			// select sees only the interrupt ready and stops — exactly
			// one job completes, the rest are marked interrupted.
			once.Do(func() { started <- struct{}{} })
			<-interrupt
			return fakeResult(s), nil
		},
	})
	if len(outcomes) != len(specs) {
		t.Fatalf("got %d outcomes for %d specs", len(outcomes), len(specs))
	}
	var completed, interrupted int
	for _, o := range outcomes {
		switch {
		case o.Result != nil && o.Err == nil:
			completed++
		case errors.Is(o.Err, ErrInterrupted):
			interrupted++
		default:
			t.Fatalf("job %s: unexpected outcome (res=%v err=%v)", o.Spec.Label(), o.Result, o.Err)
		}
	}
	if completed == 0 {
		t.Fatal("interrupt lost all completed results")
	}
	if interrupted == 0 {
		t.Fatal("no job was marked interrupted")
	}
	if completed+interrupted != len(specs) {
		t.Fatalf("accounting: %d completed + %d interrupted != %d specs",
			completed, interrupted, len(specs))
	}
	// The completed results are a usable partial result set.
	if got := len(Results(outcomes)); got != completed {
		t.Fatalf("Results() returned %d, want %d", got, completed)
	}
}

// TestSummarizeAndJSONL pins the sweep summary arithmetic (in the final
// line and in JSONL output) and the trailing {"summary": ...} record's
// shape.
func TestSummarizeAndJSONL(t *testing.T) {
	outcomes := []Outcome{
		{Wall: 20 * time.Millisecond},                         // success
		{Wall: time.Millisecond},                              // success
		{Err: errors.New("boom"), Wall: 5 * time.Millisecond}, // failure
		{Err: fmt.Errorf("%w: job x", ErrInterrupted)},        // interrupted
	}
	s := Summarize(outcomes)
	want := Summary{Total: 4, Succeeded: 2, Failed: 1, Interrupted: 1, WallMS: 26}
	if s != want {
		t.Errorf("Summarize = %+v, want %+v", s, want)
	}
	line := s.String()
	for _, frag := range []string{"4 jobs", "2 ok", "1 failed", "1 interrupted"} {
		if !strings.Contains(line, frag) {
			t.Errorf("summary line %q missing %q", line, frag)
		}
	}

	var buf bytes.Buffer
	if err := WriteSummaryJSONL(&buf, s); err != nil {
		t.Fatal(err)
	}
	var rec map[string]Summary
	if err := json.Unmarshal(buf.Bytes(), &rec); err != nil {
		t.Fatalf("summary record is not one JSON line: %v", err)
	}
	if got, ok := rec["summary"]; !ok || got != want {
		t.Errorf("JSONL summary record = %+v, want %+v", rec, want)
	}
}
