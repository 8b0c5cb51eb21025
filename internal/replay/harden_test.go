package replay

import (
	"errors"
	"strings"
	"testing"

	"pacifier/internal/cpu"
	"pacifier/internal/relog"
	"pacifier/internal/trace"
)

// The replayer must never crash on a log it accepted: structurally bad
// logs are rejected up front by relog.Validate, and log/workload
// mismatches that only surface during execution become typed Defects in
// the Result instead of panics.

func TestReplayRejectsInvalidLog(t *testing.T) {
	// A value-log offset outside the chunk: decodes fine, fails Validate.
	l := relog.NewLog(2)
	l.Append(&relog.Chunk{PID: 0, CID: 0, StartSN: 1, EndSN: 2, TS: 0, Duration: 5,
		VLog: []relog.VEntry{{Offset: 9, Value: 1}}})
	l.Append(&relog.Chunk{PID: 1, CID: 0, StartSN: 1, EndSN: 2, TS: 1, Duration: 5})
	_, err := Run(l, tinyWorkload(), nil, Config{})
	if err == nil {
		t.Fatal("invalid log accepted")
	}
	if !errors.Is(err, relog.ErrInvalid) {
		t.Fatalf("rejection %v does not wrap relog.ErrInvalid", err)
	}
	var verr *relog.ValidationError
	if !errors.As(err, &verr) {
		t.Fatalf("rejection %v carries no *relog.ValidationError", err)
	}
}

func TestReplayDefectOnStoreDelayedLoad(t *testing.T) {
	// The log delays SN 2 of P0 as a store, but in the workload that op
	// is a load. Validate cannot see the workload, so the mismatch only
	// surfaces when the delayed "store" is applied: a Defect, not a
	// panic, and the run is reported non-deterministic.
	l := relog.NewLog(2)
	l.Append(&relog.Chunk{PID: 0, CID: 0, StartSN: 1, EndSN: 2, TS: 0, Duration: 5,
		DSet: []relog.DEntry{{Offset: 1, IsLoad: false}}})
	l.Append(&relog.Chunk{PID: 1, CID: 0, StartSN: 1, EndSN: 2, TS: 1, Duration: 5})
	res, err := Run(l, tinyWorkload(), nil, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if res.DefectCount == 0 || len(res.Defects) == 0 {
		t.Fatal("store-delayed load produced no defect")
	}
	d := res.Defects[0]
	if d.PID != 0 || d.SN != 2 || !strings.Contains(d.Error(), "executed as a store") {
		t.Fatalf("unexpected defect %+v", d)
	}
	if res.Deterministic() {
		t.Fatal("run with defects reported deterministic")
	}
}

func TestReplayRejectsMismatchedExpected(t *testing.T) {
	// Recorded outcomes covering the wrong number of cores would index
	// out of range during checking; reject before replaying.
	expected := [][]cpu.ExecRecord{{{SN: 1, Kind: trace.Write}}}
	if _, err := Run(handLog(), tinyWorkload(), expected, Config{}); err == nil {
		t.Fatal("expected-length mismatch accepted")
	}
}

func TestReplayRejectsOverlongChunk(t *testing.T) {
	// A chunk claiming more SNs than the thread has ops would run off
	// the end of the op list; reject before replaying.
	w := &trace.Workload{
		Name: "short",
		Threads: []trace.Thread{
			{{Kind: trace.Write, Addr: trace.SharedWord(0, 0)}},
			{{Kind: trace.Write, Addr: trace.SharedWord(0, 1)}},
		},
	}
	l := relog.NewLog(2)
	l.Append(&relog.Chunk{PID: 0, CID: 0, StartSN: 1, EndSN: 4, TS: 0, Duration: 5,
		DSet: []relog.DEntry{{Offset: 3, IsLoad: false}}})
	l.Append(&relog.Chunk{PID: 1, CID: 0, StartSN: 1, EndSN: 1, TS: 1, Duration: 5})
	if _, err := Run(l, w, nil, Config{}); err == nil {
		t.Fatal("chunk past the end of the workload accepted")
	}
}

func TestReplayRejectsThreadTooLongForOpIndex(t *testing.T) {
	// The op index stores int32 positions; a thread it cannot address is
	// rejected with a typed error before any table is built.
	defer func(n int) { maxThreadOps = n }(maxThreadOps)
	maxThreadOps = 5
	_, err := NewStepper(synthLog(), synthWorkload(), nil, synthConfig())
	var tl *ThreadTooLongError
	if !errors.As(err, &tl) || tl.PID != 0 || tl.Ops != 6 {
		t.Fatalf("6-op thread under a 5-op index limit: got %v, want *ThreadTooLongError for core 0", err)
	}
	maxThreadOps = 6
	if _, err := NewStepper(synthLog(), synthWorkload(), nil, synthConfig()); err != nil {
		t.Fatalf("6-op thread at a 6-op limit rejected: %v", err)
	}
}

func TestIndexOpsRejectsTooManyPages(t *testing.T) {
	// An op entry numbers pages in 24 bits; a workload touching more
	// pages is rejected with a typed error before any replay starts.
	defer func(n int) { maxPages = n }(maxPages)
	w := &trace.Workload{
		Name: "pages",
		Threads: []trace.Thread{
			{{Kind: trace.Write, Addr: 0x10000}, {Kind: trace.Read, Addr: 0x20000}},
			{{Kind: trace.Write, Addr: 0x10008}, {Kind: trace.Compute, Cycles: 3}, {Kind: trace.Acquire, Addr: 0x30000}},
		},
	}
	maxPages = 2
	_, err := IndexOps(w)
	var tp *TooManyPagesError
	if !errors.As(err, &tp) || tp.Pages != 3 {
		t.Fatalf("3 pages under a 2-page limit: got %v, want *TooManyPagesError for 3 pages", err)
	}
	l := relog.NewLog(2)
	l.Append(&relog.Chunk{PID: 0, CID: 0, StartSN: 1, EndSN: 2, TS: 0, Duration: 5})
	l.Append(&relog.Chunk{PID: 1, CID: 0, StartSN: 1, EndSN: 2, TS: 1, Duration: 5})
	if _, err := NewStepper(l, w, nil, Config{}); !errors.As(err, &tp) {
		t.Fatalf("NewStepper with a private index: got %v, want *TooManyPagesError", err)
	}
	maxPages = 3
	if _, err := IndexOps(w); err != nil {
		t.Fatalf("3 pages at a 3-page limit rejected: %v", err)
	}
}
