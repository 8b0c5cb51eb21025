// Command benchguard compares two machine-readable BENCH reports (as
// written by `pacifier bench`) and fails when the candidate regresses
// past a tolerance — the CI tripwire that keeps the tracing hooks
// zero-cost while disabled.
//
// Timing (ns_per_op) is only compared when the two reports come from
// comparable environments (same GOOS/GOARCH/CPU count and workload):
// wall-clock numbers from a different machine mean nothing at percent
// granularity. Allocation counts are machine-independent and are always
// compared.
//
// With -record-drop, the record cases' memops_per_s throughput is also
// compared against the baseline (timing-gated like ns_per_op: only on
// comparable environments or with -force-time) and the run fails when
// the candidate's throughput dropped by more than the given fraction.
//
// Cases present in only one of the two reports are skipped.
//
// Usage:
//
//	benchguard -baseline BENCH_2026-08-07.json -candidate BENCH_ci.json -tolerance 0.02
//	benchguard -baseline BENCH_2026-08-07.json -candidate BENCH_ci.json -record-drop 0.10
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"
)

type benchCase struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     int64   `json:"ns_per_op"`
	MemopsPerS  float64 `json:"memops_per_s"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

type benchReport struct {
	Date      string      `json:"date"`
	GoVersion string      `json:"go"`
	GOOS      string      `json:"goos"`
	GOARCH    string      `json:"goarch"`
	NumCPU    int         `json:"num_cpu"`
	Workload  string      `json:"workload"`
	Bench     []benchCase `json:"benchmarks"`
}

func load(path string) (*benchReport, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r benchReport
	if err := json.Unmarshal(blob, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(r.Bench) == 0 {
		return nil, fmt.Errorf("%s: no benchmarks", path)
	}
	return &r, nil
}

// comparable reports whether timing numbers from the two reports can be
// meaningfully diffed at percent granularity.
func comparable(a, b *benchReport) bool {
	return a.GOOS == b.GOOS && a.GOARCH == b.GOARCH &&
		a.NumCPU == b.NumCPU && a.Workload == b.Workload
}

func main() {
	var (
		baseline   = flag.String("baseline", "", "baseline BENCH report")
		candidate  = flag.String("candidate", "", "candidate BENCH report")
		tolerance  = flag.Float64("tolerance", 0.02, "allowed fractional regression (0.02 = 2%)")
		forceTime  = flag.Bool("force-time", false, "compare timing even across differing environments")
		recordDrop = flag.Float64("record-drop", 0,
			"allowed fractional memops_per_s drop of the Record* cases vs baseline (0 = skip)")
	)
	flag.Parse()
	if *candidate == "" || *baseline == "" {
		fmt.Fprintln(os.Stderr, "benchguard: need -baseline and -candidate")
		os.Exit(2)
	}
	cand, err := load(*candidate)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: %v\n", err)
		os.Exit(2)
	}
	base, err := load(*baseline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchguard: %v\n", err)
		os.Exit(2)
	}

	compareTime := *forceTime || comparable(base, cand)
	if !compareTime {
		fmt.Printf("benchguard: environments differ (%s/%s/%dcpu %q vs %s/%s/%dcpu %q) — comparing allocations only\n",
			base.GOOS, base.GOARCH, base.NumCPU, base.Workload,
			cand.GOOS, cand.GOARCH, cand.NumCPU, cand.Workload)
	}

	byName := map[string]benchCase{}
	for _, c := range base.Bench {
		byName[c.Name] = c
	}
	var tripped []string
	check := func(name, metric string, baseV, candV int64) {
		if baseV <= 0 {
			return
		}
		rel := float64(candV-baseV) / float64(baseV)
		verdict := "ok"
		if rel > *tolerance {
			verdict = "FAIL"
			tripped = append(tripped, fmt.Sprintf("%s %s (%+.2f%%)", name, metric, rel*100))
		}
		fmt.Printf("benchguard: %-18s %-13s %12d -> %12d  %+6.2f%%  (limit %+.2f%%)  %s\n",
			name, metric, baseV, candV, rel*100, *tolerance*100, verdict)
	}
	// checkDrop guards a bigger-is-better throughput metric: the run
	// fails when the candidate lost more than -record-drop of it.
	checkDrop := func(name, metric string, baseV, candV float64) {
		if baseV <= 0 {
			return
		}
		rel := (baseV - candV) / baseV
		verdict := "ok"
		if rel > *recordDrop {
			verdict = "FAIL"
			tripped = append(tripped, fmt.Sprintf("%s %s (-%.2f%%)", name, metric, rel*100))
		}
		fmt.Printf("benchguard: %-18s %-13s %12.0f -> %12.0f  %+6.2f%%  (floor %+.2f%%)  %s\n",
			name, metric, baseV, candV, -rel*100, -*recordDrop*100, verdict)
	}
	matched := 0
	for _, c := range cand.Bench {
		b, ok := byName[c.Name]
		if !ok {
			continue
		}
		matched++
		if compareTime {
			check(c.Name, "ns/op", b.NsPerOp, c.NsPerOp)
			if *recordDrop > 0 && strings.HasPrefix(c.Name, "Record") {
				checkDrop(c.Name, "memops/s", b.MemopsPerS, c.MemopsPerS)
			}
		}
		check(c.Name, "allocs/op", b.AllocsPerOp, c.AllocsPerOp)
	}
	if matched == 0 {
		fmt.Fprintln(os.Stderr, "benchguard: no benchmark names in common")
		os.Exit(2)
	}
	if len(tripped) > 0 {
		fmt.Fprintf(os.Stderr, "benchguard: regression beyond %.1f%% tolerance: %s\n",
			*tolerance*100, strings.Join(tripped, ", "))
		os.Exit(1)
	}
}
