package core

import (
	"sync"
	"testing"

	"pacifier/internal/record"
	"pacifier/internal/relog"
	"pacifier/internal/trace"
)

var replayBench struct {
	once sync.Once
	rr   *RunResult
	raw  []byte
	err  error
}

// replayBenchRun returns radiosity 16p×20k with non-atomic writes, seed
// 2, recorded under Granule, and its Granule log encoded and decoded
// again, as a saved log is opened. The recording is made once per test
// binary, and its op index is built before the first benchmark times
// anything, so the benchmarks time replays of an indexed recording.
func replayBenchRun(b *testing.B) (*RunResult, *relog.Log) {
	b.Helper()
	replayBench.once.Do(func() {
		p, err := trace.ProfileByName("radiosity")
		if err != nil {
			replayBench.err = err
			return
		}
		opts := DefaultOptions()
		opts.Seed = 2
		opts.Atomic = false
		rr, err := Record(p.Generate(16, 20000, 2), opts, record.ModeGranule)
		if err != nil {
			replayBench.err = err
			return
		}
		rr.opIndex()
		replayBench.rr = rr
		replayBench.raw = relog.EncodeLog(rr.Recording(record.ModeGranule).Log)
	})
	if replayBench.err != nil {
		b.Fatal(replayBench.err)
	}
	log, err := relog.DecodeLog(replayBench.raw)
	if err != nil {
		b.Fatal(err)
	}
	return replayBench.rr, log
}

// BenchmarkReplayExternal replays the decoded log against its recording
// through the run's shared op index: one batch replay of a saved log.
func BenchmarkReplayExternal(b *testing.B) {
	rr, log := replayBenchRun(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := ReplayExternal(rr, log, record.ModeGranule, nil)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Deterministic() {
			b.Fatalf("replay diverged: %d mismatches", res.MismatchCount)
		}
	}
	b.ReportMetric(float64(rr.MemOps)*float64(b.N)/b.Elapsed().Seconds(), "memops/s")
}

// BenchmarkSessionContinue opens a debug session over the decoded log
// and runs it to the end, checkpointing as it goes: what `pacifier
// debug` does before the first seek.
func BenchmarkSessionContinue(b *testing.B) {
	rr, log := replayBenchRun(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := NewDebugSession(rr, log, record.ModeGranule, 0)
		if err != nil {
			b.Fatal(err)
		}
		if stop := s.Continue(); stop.Reason != "end" {
			b.Fatalf("Continue stopped early: %s", stop.Reason)
		}
	}
}
