package replay_test

import (
	"testing"

	"pacifier/internal/core"
	"pacifier/internal/record"
	"pacifier/internal/replay"
	"pacifier/internal/trace"
)

// TestNewStepperDoesNotCopyWorkload: NewStepper indexes the workload's
// memory ops in place, so the bytes it allocates stay within 8 per
// memory op plus a per-chunk and a fixed allowance. A copy of each
// trace.Op alone would cost 32 bytes per memory op.
func TestNewStepperDoesNotCopyWorkload(t *testing.T) {
	p, err := trace.ProfileByName("radiosity")
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.Seed = 2
	opts.Atomic = false
	rr, err := core.Record(p.Generate(16, 5000, 2), opts, record.ModeGranule)
	if err != nil {
		t.Fatal(err)
	}
	log := rr.Recording(record.ModeGranule).Log
	if _, err := replay.NewStepper(log, rr.Workload, rr.Records, replay.Config{}); err != nil {
		t.Fatal(err)
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			replay.NewStepper(log, rr.Workload, rr.Records, replay.Config{})
		}
	})
	memops, chunks := rr.Workload.MemOps(), log.TotalChunks()
	bound := int64(8*memops + 64*chunks + 64<<10)
	if got := res.AllocedBytesPerOp(); got > bound {
		t.Fatalf("NewStepper allocated %d bytes for %d memory ops and %d chunks, over the %d bound",
			got, memops, chunks, bound)
	}
}

// TestNewStepperWithSharedIndexAllocs: with the op index supplied,
// NewStepper allocates nothing per memory op, only the per-chunk tables
// and a fixed allowance. This is what each replay, debug session and
// seek of one recording pays once the recording's index is built.
func TestNewStepperWithSharedIndexAllocs(t *testing.T) {
	p, err := trace.ProfileByName("radiosity")
	if err != nil {
		t.Fatal(err)
	}
	opts := core.DefaultOptions()
	opts.Seed = 2
	opts.Atomic = false
	rr, err := core.Record(p.Generate(16, 5000, 2), opts, record.ModeGranule)
	if err != nil {
		t.Fatal(err)
	}
	log := rr.Recording(record.ModeGranule).Log
	idx, err := replay.IndexOps(rr.Workload)
	if err != nil {
		t.Fatal(err)
	}
	cfg := replay.Config{Index: idx}
	if _, err := replay.NewStepper(log, rr.Workload, rr.Records, cfg); err != nil {
		t.Fatal(err)
	}
	res := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			replay.NewStepper(log, rr.Workload, rr.Records, cfg)
		}
	})
	chunks := log.TotalChunks()
	bound := int64(64*chunks + 64<<10)
	if got := res.AllocedBytesPerOp(); got > bound {
		t.Fatalf("NewStepper with a shared index allocated %d bytes for %d chunks, over the %d bound",
			got, chunks, bound)
	}
}
