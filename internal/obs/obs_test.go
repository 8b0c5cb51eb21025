package obs

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"pacifier/internal/sim"
)

// TestSchemaVersionsAgree pins ChromeSchemaVersion to the repo-wide
// sim.SchemaVersion constant it mirrors.
func TestSchemaVersionsAgree(t *testing.T) {
	if ChromeSchemaVersion != sim.SchemaVersion {
		t.Fatalf("ChromeSchemaVersion = %d, sim.SchemaVersion = %d — keep them equal",
			ChromeSchemaVersion, sim.SchemaVersion)
	}
}

// TestNilTracerSafe exercises every method on a nil *Tracer.
func TestNilTracerSafe(t *testing.T) {
	var tr *Tracer
	tr.Emit(Event{})
	tr.ChunkBegin(0, 1, 2, 3)
	tr.ChunkCommit(0, 1, 2, 3, 4, 5, 6)
	tr.ChunkSquash(0, 1, 2, 3, 4)
	tr.SCVDetect(0, 1, 2, 3, 4, 5, 6)
	tr.SCVSuppress(0, 1, 2, 3, 4, 5, 6)
	tr.SBDrain(1, 2, 3, 4, 5)
	tr.MESI(1, 2, 3, 0, 1)
	tr.NoCSend(0, 1, 2, 3, 4)
	tr.NoCRecv(0, 1, 2, 3, 4)
	tr.ReplayChunk(1, 2, 3, 4, 5, 6)
	tr.ReplayDiverge(1, 2, 3, 4, 5, 6)
	tr.VolCycle(0, 1, 2, 3, 4, 5, 6)
	tr.Reset()
	if tr.Len() != 0 || tr.Events() != nil || tr.Label() != "" {
		t.Fatal("nil tracer must report empty state")
	}
}

func sampleEvents() []Event {
	tr := New("test")
	tr.ChunkBegin(0, 0, 0, 10)
	tr.SBDrain(0, 3, 15, 0x80, 2)
	tr.MESI(1, 0x80, 16, 0, 2)
	tr.NoCSend(0, 1, 2, 17, 6)
	tr.NoCRecv(0, 1, 2, 23, 6)
	tr.SCVDetect(0, 0, 0, 4, 24, 2, 16)
	tr.ChunkCommit(0, 0, 0, 10, 30, 5, 1)
	tr.ReplayChunk(0, 0, 12, 35, 5, 2)
	tr.ReplayDiverge(0, 0, 4, 20, 7, 9)
	return tr.Events()
}

func TestChromeTraceValid(t *testing.T) {
	data := ChromeTrace(sampleEvents(), []string{"karma", "gra"})
	if err := ValidateChromeTrace(data); err != nil {
		t.Fatalf("trace invalid: %v\n%s", err, data)
	}
	// Both sides must appear as processes, record cores as threads.
	for _, want := range []string{
		`"name":"record"`, `"name":"replay"`, `"name":"core 0"`,
		`"name":"chunk-commit:karma"`, `"ph":"X"`, `"name":"mesi"`,
		`"from":"I"`, `"to":"E"`,
	} {
		if !bytes.Contains(data, []byte(want)) {
			t.Errorf("trace missing %s", want)
		}
	}
}

// TestChromeTraceDeterministic renders the same events twice and wants
// identical bytes.
func TestChromeTraceDeterministic(t *testing.T) {
	a := ChromeTrace(sampleEvents(), []string{"karma"})
	b := ChromeTrace(sampleEvents(), []string{"karma"})
	if !bytes.Equal(a, b) {
		t.Fatal("ChromeTrace output differs across identical inputs")
	}
}

func TestValidateChromeTraceRejects(t *testing.T) {
	bad := [][]byte{
		[]byte(`{`),
		[]byte(`{"schemaVersion":1,"traceEvents":[{"name":"x","ph":"i","pid":0,"tid":0,"ts":1}]}`),
		[]byte(`{"schemaVersion":2,"traceEvents":[]}`),
		[]byte(`{"schemaVersion":2,"traceEvents":[{"ph":"i","pid":0,"tid":0,"ts":1}]}`),
		[]byte(`{"schemaVersion":2,"traceEvents":[{"name":"x","ph":"i","pid":0,"tid":0}]}`),
	}
	for i, b := range bad {
		if err := ValidateChromeTrace(b); err == nil {
			t.Errorf("case %d: bad trace accepted", i)
		}
	}
}

func TestWriteFileAtomic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	if err := WriteFileAtomic(path, []byte("first")); err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(path, []byte("second")); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "second" {
		t.Fatalf("content = %q", got)
	}
	// No temp droppings left behind.
	matches, _ := filepath.Glob(filepath.Join(filepath.Dir(path), ".*tmp*"))
	if len(matches) != 0 {
		t.Fatalf("leftover temp files: %v", matches)
	}
}

func TestCorrelate(t *testing.T) {
	tr := New("t")
	tr.ChunkCommit(0, 1, 7, 100, 140, 12, 2) // record side, core 1, cid 7
	tr.ReplayChunk(1, 6, 90, 130, 9, 0)      // earlier chunk on the core
	tr.ReplayDiverge(1, 7, 3, 150, 42, 43)
	tr.ReplayChunk(1, 7, 145, 180, 12, 5) // span emitted after the diverge
	ex := Correlate(tr.Events())
	if ex == nil || ex.Diverge == nil {
		t.Fatal("no explanation for a diverged stream")
	}
	if ex.RecordChunk == nil || ex.RecordChunk.CID != 7 || ex.RecordChunk.Side != SideRecord {
		t.Errorf("RecordChunk = %+v", ex.RecordChunk)
	}
	if ex.ReplayChunk == nil || ex.ReplayChunk.CID != 7 || ex.ReplayChunk.Kind != KReplayChunk {
		t.Errorf("ReplayChunk = %+v", ex.ReplayChunk)
	}
	if ex.PrevOnCore == nil || ex.PrevOnCore.CID != 6 {
		t.Errorf("PrevOnCore = %+v", ex.PrevOnCore)
	}
	// A clean stream explains to nil.
	clean := New("clean")
	clean.ChunkCommit(0, 0, 1, 0, 10, 3, 0)
	if Correlate(clean.Events()) != nil {
		t.Error("clean stream produced an explanation")
	}
}

// TestTracerFold: events emitted into a buffer reach the tracer at the
// fold, in emit order and after the tracer's own, and the tracer's
// limit drops (and counts) whatever it cannot keep.
func TestTracerFold(t *testing.T) {
	if (*Tracer)(nil).Buffer() != nil {
		t.Fatal("a nil tracer's buffer must be nil, so emit sites keep their nil check")
	}
	tr := New("run")
	tr.SBDrain(0, 1, 5, 0x40, 0)
	buf := tr.Buffer()
	buf.ChunkBegin(0, 1, 0, 2)
	buf.ChunkCommit(0, 1, 0, 2, 9, 3, 0)
	tr.MESI(1, 0x40, 6, 0, 2)
	tr.Fold(buf)
	var kinds []Kind
	for _, e := range tr.Events() {
		kinds = append(kinds, e.Kind)
	}
	want := []Kind{KSBDrain, KMESI, KChunkBegin, KChunkCommit}
	if !slices.Equal(kinds, want) {
		t.Fatalf("folded kinds %v, want %v", kinds, want)
	}
	if buf.Len() != 0 {
		t.Fatal("Fold left events in the buffer")
	}

	tr = New("capped")
	tr.SetLimit(3)
	tr.SBDrain(0, 1, 5, 0x40, 0)
	buf = tr.Buffer()
	for i := 0; i < 5; i++ { // the buffer keeps 3, drops 2
		buf.ChunkBegin(0, 1, int64(i), int64(i))
	}
	tr.Fold(buf) // the tracer keeps 2 of those 3
	if tr.Len() != 3 || tr.Dropped() != 3 {
		t.Fatalf("capped fold: %d events, %d dropped; want 3 and 3", tr.Len(), tr.Dropped())
	}
	if got := tr.Events()[2].CID; got != 1 {
		t.Fatalf("capped fold kept CID %d last, want the buffer's first two (CID 1)", got)
	}
}
