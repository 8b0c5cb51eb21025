package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// report is the -o file: every run's values per workload and metric,
// with their median and quartiles. compare reads two of them.
type report struct {
	Seed      uint64               `json:"seed"`
	Seconds   float64              `json:"seconds"`
	Traced    bool                 `json:"traced"`
	Workloads map[string]*wlSeries `json:"workloads"`
}

type wlSeries struct {
	Digests []string           `json:"digests"`
	Metrics map[string]*series `json:"metrics"`
}

type series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
}

func newReport(seed uint64, seconds float64, traced bool) *report {
	return &report{Seed: seed, Seconds: seconds, Traced: traced, Workloads: map[string]*wlSeries{}}
}

func (rep *report) add(res wlResult) {
	ws := rep.Workloads[res.name]
	if ws == nil {
		ws = &wlSeries{Metrics: map[string]*series{}}
		rep.Workloads[res.name] = ws
	}
	ws.Digests = append(ws.Digests, res.digest)
	for name, m := range res.metrics {
		s := ws.Metrics[name]
		if s == nil {
			s = &series{Unit: m.Unit}
			ws.Metrics[name] = s
		}
		s.Values = append(s.Values, m.Value)
		s.Q1, s.Median, s.Q3 = quartiles(s.Values)
	}
}

// digestsAgree reports whether every run of each workload produced the
// same output digest.
func (rep *report) digestsAgree() bool {
	for _, ws := range rep.Workloads {
		for _, d := range ws.Digests {
			if d != ws.Digests[0] {
				return false
			}
		}
	}
	return true
}

// medians returns each metric's median over the runs, named bare when
// one workload ran and as workload/metric otherwise. End-to-end metric
// names have no dot and per-layer ones have one: an untraced run returns
// the first kind, a traced run the second.
func (rep *report) medians(bare, traced bool) metrics {
	out := metrics{}
	for wl, ws := range rep.Workloads {
		for name, s := range ws.Metrics {
			if strings.Contains(name, ".") != traced {
				continue
			}
			if !bare {
				name = wl + "/" + name
			}
			out.set(name, s.Median, s.Unit)
		}
	}
	return out
}

func (rep *report) write(path string) error {
	blob, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}

// readReports reads comma-separated report files and concatenates their
// runs in order, so that reports of single alternating runs form one
// series per side.
func readReports(paths string) (*report, error) {
	merged := newReport(0, 0, false)
	for _, path := range strings.Split(paths, ",") {
		blob, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var rep report
		if err := json.Unmarshal(blob, &rep); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for wl, ws := range rep.Workloads {
			into := merged.Workloads[wl]
			if into == nil {
				into = &wlSeries{Metrics: map[string]*series{}}
				merged.Workloads[wl] = into
			}
			into.Digests = append(into.Digests, ws.Digests...)
			for name, s := range ws.Metrics {
				m := into.Metrics[name]
				if m == nil {
					m = &series{Unit: s.Unit}
					into.Metrics[name] = m
				}
				m.Values = append(m.Values, s.Values...)
				m.Q1, m.Median, m.Q3 = quartiles(m.Values)
			}
		}
	}
	return merged, nil
}

// benchSpec is the part of BENCHMARK.json compare needs.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// compareCmd judges a change against its parent, metric by metric and
// workload by workload. Each side is a report file or a comma-separated
// list of them; run i of one side pairs with run i of the other, so the
// runs should alternate between the sides.
func compareCmd(args []string, w io.Writer) int {
	fs := flag.NewFlagSet("compare", flag.ContinueOnError)
	specPath := fs.String("spec", "", "BENCHMARK.json with the bounds (default: ./ or ../BENCHMARK.json)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare [-spec BENCHMARK.json] parent.json[,...] change.json[,...]")
		return 2
	}
	if *specPath == "" {
		*specPath = "BENCHMARK.json"
		if _, err := os.Stat(*specPath); err != nil {
			*specPath = "../BENCHMARK.json"
		}
	}
	blob, err := os.ReadFile(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", err)
		return 2
	}
	var spec benchSpec
	if err := json.Unmarshal(blob, &spec); err != nil {
		fmt.Fprintln(os.Stderr, "bench compare:", *specPath+":", err)
		return 2
	}
	parent, err := readReports(fs.Arg(0))
	if err == nil {
		var change *report
		if change, err = readReports(fs.Arg(1)); err == nil {
			return compareReports(w, spec, parent, change)
		}
	}
	fmt.Fprintln(os.Stderr, "bench compare:", err)
	return 2
}

// verdict applies the rule for claiming a gain in a small sandbox: at
// least ten pairs, the change better in nine tenths of them, and medians
// further apart than the parent's own quartile spread. Otherwise the
// change is worse when its median is worse by more than the bound, and
// unresolved when the parent's own spread exceeds the bound.
func verdict(p, c []float64, lowerBetter bool, bound float64) (string, int, int) {
	n := min(len(p), len(c))
	better := func(a, b float64) bool { // a better than b
		if lowerBetter {
			return a < b
		}
		return a > b
	}
	wins := 0
	for i := 0; i < n; i++ {
		if better(c[i], p[i]) {
			wins++
		}
	}
	pq1, pm, pq3 := quartiles(p)
	_, cm, _ := quartiles(c)
	gap := cm - pm
	if lowerBetter {
		gap = -gap // positive gap = improvement
	}
	switch {
	case n >= 10 && 10*wins >= 9*n && gap > pq3-pq1:
		return "improved", wins, n
	case -gap > bound*abs(pm):
		return "worse", wins, n
	case pq3-pq1 > bound*abs(pm) && !allBetter(c, p, better):
		return "unresolved", wins, n
	}
	return "no-worse", wins, n
}

func allBetter(c, p []float64, better func(a, b float64) bool) bool {
	for _, x := range c {
		for _, y := range p {
			if !better(x, y) {
				return false
			}
		}
	}
	return true
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func compareReports(w io.Writer, spec benchSpec, parent, change *report) int {
	var wls []string
	for wl := range parent.Workloads {
		if change.Workloads[wl] != nil {
			wls = append(wls, wl)
		}
	}
	sort.Strings(wls)
	fmt.Fprintf(w, "%-12s %-24s %12s %12s %8s %6s  %s\n", "workload", "metric", "parent", "change", "gap%", "wins", "verdict")
	worse := false
	for _, wl := range wls {
		pw, cw := parent.Workloads[wl], change.Workloads[wl]
		for _, e := range spec.EndToEnd {
			ps, cs := pw.Metrics[e.Name], cw.Metrics[e.Name]
			if ps == nil || cs == nil {
				continue
			}
			v, wins, n := verdict(ps.Values, cs.Values, e.Better == "lower", e.Bound)
			worse = worse || v == "worse"
			gap := 0.0
			if ps.Median != 0 {
				gap = 100 * (cs.Median - ps.Median) / ps.Median
			}
			fmt.Fprintf(w, "%-12s %-24s %12.5g %12.5g %+8.2f %3d/%-2d  %s\n",
				wl, e.Name, ps.Median, cs.Median, gap, wins, n, v)
		}
		if len(pw.Digests) > 0 && len(cw.Digests) > 0 && pw.Digests[0] != cw.Digests[0] {
			fmt.Fprintf(w, "%-12s digest changed: %s -> %s\n", wl, pw.Digests[0], cw.Digests[0])
		}
	}
	if worse {
		return 1
	}
	return 0
}
