package pacifier_test

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"pacifier"
)

// tracedRun records and replays one fixed 16-core workload with a
// tracer attached and returns the rendered trace plus encoded metrics.
func tracedRun(t *testing.T) (traceJSON, metricsJSON []byte) {
	t.Helper()
	w, err := pacifier.App("fft", 16, 300, 7)
	if err != nil {
		t.Fatal(err)
	}
	tr := pacifier.NewTracer(w.Name)
	run, err := pacifier.Record(w, pacifier.Options{Seed: 7, Atomic: true, Tracer: tr},
		pacifier.Granule)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run.ReplayTraced(pacifier.Granule, tr); err != nil {
		t.Fatal(err)
	}
	metrics, err := run.Metrics().Encode()
	if err != nil {
		t.Fatal(err)
	}
	return pacifier.ChromeTrace(tr), metrics
}

// TestTraceAndMetricsByteIdentical runs the same seed twice and
// requires byte-identical trace and metrics artifacts — the determinism
// contract every downstream diff tool depends on.
func TestTraceAndMetricsByteIdentical(t *testing.T) {
	t1, m1 := tracedRun(t)
	t2, m2 := tracedRun(t)
	if !bytes.Equal(t1, t2) {
		t.Error("trace files differ across identical seeds")
	}
	if !bytes.Equal(m1, m2) {
		t.Error("metrics files differ across identical seeds")
	}
}

// TestTraceSixteenCoreTracks checks the Perfetto-facing shape of a
// 16-core trace: well-formed trace-event JSON, a record and a replay
// process, and one named thread track per core on the record side.
func TestTraceSixteenCoreTracks(t *testing.T) {
	data, metrics := tracedRun(t)
	if err := pacifier.ValidateChromeTrace(data); err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
	var doc struct {
		SchemaVersion int `json:"schemaVersion"`
		TraceEvents   []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
			Pid  int    `json:"pid"`
			Tid  int    `json:"tid"`
			Args map[string]any
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.SchemaVersion != pacifier.SchemaVersion {
		t.Errorf("trace schemaVersion = %d, want %d", doc.SchemaVersion, pacifier.SchemaVersion)
	}
	recTracks := map[int]bool{}
	processes := map[int]bool{}
	for _, e := range doc.TraceEvents {
		if e.Ph != "M" {
			continue
		}
		switch e.Name {
		case "process_name":
			processes[e.Pid] = true
		case "thread_name":
			if e.Pid == 0 {
				recTracks[e.Tid] = true
			}
		}
	}
	if !processes[0] || !processes[1] {
		t.Errorf("want record (pid 0) and replay (pid 1) processes, got %v", processes)
	}
	for core := 0; core < 16; core++ {
		if !recTracks[core] {
			t.Errorf("missing record-side track for core %d", core)
		}
	}

	// The metrics snapshot must carry the same schema version and the
	// histograms the issue promises.
	var snap pacifier.MetricsSnapshot
	if err := json.Unmarshal(metrics, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.SchemaVersion != pacifier.SchemaVersion {
		t.Errorf("metrics schema_version = %d, want %d", snap.SchemaVersion, pacifier.SchemaVersion)
	}
	want := map[string]bool{
		"record.chunk_ops.gra": false, "cpu.sb_drain_delay": false,
		"replay.stall_cycles": false,
	}
	for _, h := range snap.Histograms {
		if _, ok := want[h.Name]; ok {
			want[h.Name] = h.Count > 0
		}
	}
	for name, ok := range want {
		if !ok {
			t.Errorf("histogram %s missing or empty", name)
		}
	}
}

// TestWriteTraceAndMetricsFiles exercises the atomic file writers the
// CLIs and the SIGINT flush path use.
func TestWriteTraceAndMetricsFiles(t *testing.T) {
	w, err := pacifier.App("lu", 4, 100, 3)
	if err != nil {
		t.Fatal(err)
	}
	tr := pacifier.NewTracer(w.Name)
	run, err := pacifier.Record(w, pacifier.Options{Seed: 3, Atomic: true, Tracer: tr},
		pacifier.Granule)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	tp := filepath.Join(dir, "run.trace.json")
	mp := filepath.Join(dir, "run.metrics.json")
	if err := pacifier.WriteTraceFile(tp, tr); err != nil {
		t.Fatal(err)
	}
	if err := pacifier.WriteMetricsFile(mp, run.Metrics()); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(tp)
	if err != nil {
		t.Fatal(err)
	}
	if err := pacifier.ValidateChromeTrace(blob); err != nil {
		t.Fatalf("written trace invalid: %v", err)
	}
}
