package relog_test

import (
	"sync"
	"testing"

	"pacifier/internal/core"
	"pacifier/internal/record"
	"pacifier/internal/relog"
	"pacifier/internal/trace"
)

var recorded struct {
	once sync.Once
	raw  []byte
	err  error
}

// recordedLog returns the encoded Granule log of radiosity 16p×20k with
// non-atomic writes, seed 2: about 3.4k chunks, 45k preds, and D_set and
// P_set entries. It is recorded once per test binary.
func recordedLog(t testing.TB) (*relog.Log, []byte) {
	t.Helper()
	recorded.once.Do(func() {
		p, err := trace.ProfileByName("radiosity")
		if err != nil {
			recorded.err = err
			return
		}
		opts := core.DefaultOptions()
		opts.Seed = 2
		opts.Atomic = false
		rr, err := core.Record(p.Generate(16, 20000, 2), opts, record.ModeGranule)
		if err != nil {
			recorded.err = err
			return
		}
		recorded.raw = relog.EncodeLog(rr.Recording(record.ModeGranule).Log)
	})
	if recorded.err != nil {
		t.Fatal(recorded.err)
	}
	l, err := relog.DecodeLog(recorded.raw)
	if err != nil {
		t.Fatal(err)
	}
	return l, recorded.raw
}

// TestRecordedLogSlicesDoNotAlias: appending to one decoded chunk's
// Preds, DSet, DEntry.Pred, PSet or VLog leaves every other chunk's
// encoding as it was, on a recorded log. Recorded logs at this scale
// carry no V_log entries; the in-code fuzz seeds, which FuzzRoundTrip
// runs the same check on in every test run, do.
func TestRecordedLogSlicesDoNotAlias(t *testing.T) {
	l, raw := recordedLog(t)
	if s := l.ComputeStats(); s.Chunks < 3000 || s.DEntries == 0 || s.PEntries == 0 {
		t.Fatalf("recorded log lacks coverage: %+v", s)
	}
	relog.CheckNoAliasing(t, raw)
}

// TestDecodeLogAllocationsIndependentOfChunks: decoding carves chunks and
// their slices from per-log blocks, so a 3k-chunk log costs a few dozen
// allocations, not a few per chunk.
func TestDecodeLogAllocationsIndependentOfChunks(t *testing.T) {
	l, raw := recordedLog(t)
	chunks := l.TotalChunks()
	if chunks < 3000 {
		t.Fatalf("recorded log has only %d chunks", chunks)
	}
	const bound = 128
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := relog.DecodeLog(raw); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > bound {
		t.Fatalf("DecodeLog of %d chunks made %v allocations, more than %d", chunks, allocs, bound)
	}
}

// BenchmarkDecodeLog decodes the recorded log: the wire-level half of
// opening a saved recording.
func BenchmarkDecodeLog(b *testing.B) {
	_, raw := recordedLog(b)
	b.SetBytes(int64(len(raw)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := relog.DecodeLog(raw); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkValidate checks the recorded log's invariants: the semantic
// half of opening a saved recording.
func BenchmarkValidate(b *testing.B) {
	l, _ := recordedLog(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := relog.Validate(l); err != nil {
			b.Fatal(err)
		}
	}
}
