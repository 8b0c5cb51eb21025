package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// tiny shrinks a workload so the whole set runs in a few seconds.
func tiny(d workloadDef) workloadDef {
	d.cores, d.ops = 4, 300
	if d.kind == "debug" {
		d.loads, d.replays, d.seeks = 2, 1, 3
	}
	return d
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func readSpec(t *testing.T) (e2e, layer []specMetric) {
	t.Helper()
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		EndToEnd []specMetric `json:"end_to_end"`
		PerLayer []specMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &spec); err != nil {
		t.Fatal(err)
	}
	return spec.EndToEnd, spec.PerLayer
}

func checkMetrics(t *testing.T, wl string, got metrics, want []specMetric) {
	t.Helper()
	for _, w := range want {
		m, ok := got[w.Name]
		switch {
		case !ok:
			t.Errorf("%s: metric %s not emitted", wl, w.Name)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s: metric %s = %v", wl, w.Name, m.Value)
		case m.Unit != w.Unit:
			t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q", wl, w.Name, m.Unit, w.Unit)
		}
	}
}

func TestWorkloadsTiny(t *testing.T) {
	e2e, layer := readSpec(t)
	clock := newHostClock()
	for _, def := range workloads {
		def := tiny(def)
		t.Run(def.name, func(t *testing.T) {
			a := runWorkload(def, 1, 0, nil, clock)
			b := runWorkload(def, 1, 0, nil, clock)
			tr := newTracer()
			c := runWorkload(def, 1, 0, tr, clock)
			for _, res := range []wlResult{a, b, c} {
				if len(res.errs) > 0 {
					t.Fatalf("failed %d/%d: %v", len(res.errs), res.attempted, res.errs)
				}
			}
			checkMetrics(t, def.name, a.metrics, e2e)
			checkMetrics(t, def.name, c.metrics, layer)
			if a.digest == "" || a.digest != b.digest || a.digest != c.digest {
				t.Errorf("digests differ: %s %s %s", a.digest, b.digest, c.digest)
			}
			checkSpans(t, tr.snapshot())
		})
	}
}

// checkSpans asserts that every span lies inside its parent and that
// the Chrome trace written from them parses.
func checkSpans(t *testing.T, spans []span) {
	t.Helper()
	if len(spans) == 0 {
		t.Fatal("traced run recorded no spans")
	}
	for _, sp := range spans {
		if sp.End < sp.Start {
			t.Errorf("span %d %s never ended", sp.ID, sp.Name)
		}
		if sp.Parent == 0 {
			continue
		}
		p := spans[sp.Parent-1]
		if p.Workload != sp.Workload || sp.Start < p.Start || sp.End > p.End {
			t.Errorf("span %s [%v,%v] is not inside parent %s [%v,%v]",
				sp.Name, sp.Start, sp.End, p.Name, p.Start, p.End)
		}
	}
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeChrome(path, spans); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Ph string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatalf("trace JSON does not parse: %v", err)
	}
	complete := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			complete++
		}
	}
	if complete != len(spans) {
		t.Errorf("trace has %d complete events, want %d", complete, len(spans))
	}
}

// The reference kernel must not allocate: its garbage would count in
// alloc_bytes_per_memop and change when the collector runs.
func TestHostClockDoesNotAllocate(t *testing.T) {
	c := newHostClock()
	if n := testing.AllocsPerRun(3, c.unit); n != 0 {
		t.Errorf("a kernel unit allocates %v times", n)
	}
	if s := c.slowness(0); !(s > 0) || math.IsInf(s, 0) {
		t.Errorf("slowness = %v", s)
	}
}

func TestVerdict(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	faster := make([]float64, len(parent))
	slower := make([]float64, len(parent))
	for i, v := range parent {
		faster[i], slower[i] = v*1.2, v*0.8
	}
	for _, tc := range []struct {
		change []float64
		want   string
	}{
		{faster, "improved"},
		{slower, "worse"},
		{parent, "no-worse"},
	} {
		if got, _, _ := verdict(parent, tc.change, false, 0.1); got != tc.want {
			t.Errorf("verdict = %s, want %s", got, tc.want)
		}
	}
	noisy := []float64{50, 150, 60, 140, 70, 130, 80, 120, 90, 110}
	if got, _, _ := verdict(noisy, parent, false, 0.1); got != "unresolved" {
		t.Errorf("verdict against a noisy parent = %s, want unresolved", got)
	}
}

func TestCompareMergesReports(t *testing.T) {
	dir := t.TempDir()
	var paths []string
	for i, v := range []float64{10, 11} {
		rep := newReport(1, 1, false)
		rep.add(wlResult{name: "racy-16p", digest: "d", metrics: metrics{"jobs_per_s": {Value: v, Unit: "jobs/s"}}})
		p := filepath.Join(dir, fmt.Sprintf("r%d.json", i))
		if err := rep.write(p); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, p)
	}
	side := strings.Join(paths, ",")
	var out strings.Builder
	if code := compareCmd([]string{"-spec", "../BENCHMARK.json", side, side}, &out); code != 0 {
		t.Fatalf("compare exited %d:\n%s", code, out.String())
	}
	if !strings.Contains(out.String(), "0/2   no-worse") {
		t.Errorf("want two pairs judged no-worse, got:\n%s", out.String())
	}
}
