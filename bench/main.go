// Command bench is the repository benchmark: it runs closed-loop
// workloads over the record, save, load, replay and debug paths, checks
// that every output is correct and repeats exactly, and prints every
// metric with its unit. See README.md for the workloads and metrics.
//
//	go run . -seed 1 -o bench-out.json          # all workloads
//	go run . -workload racy-16p -seconds 25     # one workload
//	go run . -trace trace.json                  # per-layer metrics + Chrome trace
//	go run . compare parent.json change.json    # regression verdicts
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 3

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareCmd(os.Args[2:], os.Stdout))
	}
	os.Exit(benchCmd(os.Args[1:], os.Stdout))
}

func benchCmd(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		names   = fs.String("workload", "all", "comma-separated workloads, or all")
		seed    = fs.Uint64("seed", 1, "seed the workloads' inputs are generated from")
		seconds = fs.Float64("seconds", 25, "measured seconds per workload and run")
		runs    = fs.Int("runs", 1, "repeat the whole set this many times")
		traceTo = fs.String("trace", "", "traced run: report per-layer metrics and write a Chrome trace here")
		out     = fs.String("o", "", "write per-run values, medians and quartiles as JSON here")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var defs []workloadDef
	if *names == "all" {
		defs = workloads
	} else {
		for _, n := range strings.Split(*names, ",") {
			d, err := workloadByName(n)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 2
			}
			defs = append(defs, d)
		}
	}
	if *runs < 1 {
		fmt.Fprintln(os.Stderr, "bench: -runs must be at least 1")
		return 2
	}
	var tr *tracer
	if *traceTo != "" {
		tr = newTracer()
	}

	rep := newReport(*seed, *seconds, tr != nil)
	clock := newHostClock()
	attempted, failed := 0, 0
	for i := 0; i < *runs; i++ {
		for _, d := range defs {
			res := runWorkload(d, *seed, *seconds, tr, clock)
			res.print(stdout)
			rep.add(res)
			attempted += res.attempted
			failed += len(res.errs)
		}
	}
	agree := rep.digestsAgree()
	if !agree {
		fmt.Fprintln(os.Stderr, "bench: digests differ between runs")
	}
	correct := failed == 0 && agree
	if tr != nil {
		spans := tr.snapshot()
		writeSelfTable(stdout, spans)
		if err := writeChrome(*traceTo, spans); err != nil {
			fmt.Fprintln(os.Stderr, "bench: write trace:", err)
			correct = false
		}
	}
	if *out != "" {
		if err := rep.write(*out); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			correct = false
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": max(attempted, failed, 1), "failed": failed,
		"metrics": rep.medians(len(defs) == 1, tr != nil),
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !correct {
		return 1
	}
	return 0
}

// wlResult is one run of one workload.
type wlResult struct {
	name      string
	digest    string
	attempted int
	errs      []string
	metrics   metrics
}

func (res *wlResult) print(w io.Writer) {
	names := make([]string, 0, len(res.metrics))
	for n := range res.metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "%s %s %.6g %s\n", res.name, n, res.metrics[n].Value, res.metrics[n].Unit)
	}
	fmt.Fprintf(w, "%s digest %s\n", res.name, res.digest)
	fmt.Fprintf(w, "%s failed %d/%d\n", res.name, len(res.errs), res.attempted)
	for i, e := range res.errs {
		if i == 5 {
			fmt.Fprintf(os.Stderr, "%s: ... %d more failures\n", res.name, len(res.errs)-i)
			break
		}
		fmt.Fprintf(os.Stderr, "%s: FAIL %s\n", res.name, e)
	}
}

// phase is one measured stretch of the closed loop. The cal fields are
// scaled to nominal host speed (see hostspeed.go).
type phase struct {
	jobs    []time.Duration // wall latency of each job
	calJobs []time.Duration
	memops  int64
	busy    time.Duration // wall time in iterations: no kernel, no probes
	calBusy time.Duration
	before  goStats
	after   goStats
}

// runWorkload sets the workload up setupRepeats times, then measures it.
// Untraced (tr == nil) it reports the end-to-end metrics. Traced, it runs
// the loop untraced for half the time and traced for the other half, and
// reports the per-layer metrics and the tracing overhead.
func runWorkload(def workloadDef, seed uint64, seconds float64, tr *tracer, clock *hostClock) wlResult {
	res := wlResult{name: def.name, metrics: metrics{}}
	sc := &scope{t: tr, workload: def.name, iter: -1}
	first := len(tr.snapshot()) // spans of earlier runs are not this run's
	var (
		r                 *run
		setups, calSetups []time.Duration
	)
	clock.begin()
	for k := 0; k < setupRepeats; k++ {
		m := sc.begin("setup", mark{})
		nr, err := newRun(sc, m, def, seed)
		if err != nil {
			sc.end(m)
			res.attempted++
			res.errs = append(res.errs, "set-up: "+err.Error())
			return res
		}
		res.fold(nr.iterate(sc, m, 0))
		d := sc.end(m)
		setups = append(setups, d)
		calSetups = append(calSetups, scaled(d, clock.after(d)))
		if r != nil && nr.vars[0].ref.digest != r.vars[0].ref.digest {
			res.errs = append(res.errs, "set-ups disagree on the output")
		}
		r = nr
	}

	if tr == nil {
		p := r.measure(sc, seconds, &res, false, clock)
		for n, m := range endToEnd(setups, calSetups, p) {
			res.metrics[n] = m
		}
	} else {
		plain := &scope{workload: def.name}
		a := r.measure(plain, seconds/2, &res, false, clock)
		r.layers = newLayerStats()
		b := r.measure(sc, seconds/2, &res, true, clock)
		overhead := float64(median(b.calJobs)) / float64(median(a.calJobs))
		for n, m := range layerMetrics(tr.snapshot()[first:], def.name, r.layers, a, overhead) {
			res.metrics[n] = m
		}
	}
	for n, m := range r.simulated() {
		res.metrics[n] = m
	}
	res.digest = r.digest()
	return res
}

// measure runs whole rounds of iterations, one per input, until seconds
// have passed (at least one round). The reference kernel runs before the
// first iteration and after each; an iteration's times are scaled by the
// mean slowness measured on either side of it. With probe, each iteration
// is followed by a probe of every layer.
func (r *run) measure(sc *scope, seconds float64, res *wlResult, probe bool, clock *hostClock) phase {
	var p phase
	runtime.GC()
	p.before = readGoStats()
	start := time.Now()
	clock.begin()
	for it := 0; it == 0 || it%len(r.vars) != 0 || time.Since(start).Seconds() < seconds; it++ {
		sc.iter = it
		m := sc.begin("iteration", mark{})
		o := r.iterate(sc, m, it)
		wall := sc.end(m)
		slow := clock.after(wall)
		res.fold(o)
		p.busy += wall
		p.calBusy += scaled(wall, slow)
		for _, j := range o.jobs {
			p.jobs = append(p.jobs, j)
			p.calJobs = append(p.calJobs, scaled(j, slow))
		}
		p.memops += o.memops
		if probe {
			res.attempted++
			if err := r.probe(sc, it); err != nil {
				res.errs = append(res.errs, "probe: "+err.Error())
			}
		}
	}
	p.after = readGoStats()
	return p
}

func (res *wlResult) fold(o outcome) {
	res.attempted += o.attempted
	res.errs = append(res.errs, o.errs...)
}

// endToEnd computes the metrics a user of the system sees: set-up time,
// job rate and latency, all at nominal host speed, and allocation. The
// wall.* and bench.host_speed numbers behind the scaling are printed
// with them but are not end-to-end metrics.
func endToEnd(setups, calSetups []time.Duration, p phase) metrics {
	m := metrics{}
	m.set("setup_s", median(calSetups).Seconds(), "s")
	m.set("wall.setup_s", median(setups).Seconds(), "s")
	m.set("jobs_per_s", ratio(float64(len(p.calJobs)), p.calBusy.Seconds()), "jobs/s")
	m.set("job_ms_p50", ms(percentile(p.calJobs, 50)), "ms")
	m.set("job_ms_p80", ms(percentile(p.calJobs, 80)), "ms")
	m.set("alloc_bytes_per_memop", ratio(float64(p.after.totalAlloc-p.before.totalAlloc), float64(p.memops)), "B")
	m.set("wall.jobs_per_s", ratio(float64(len(p.jobs)), p.busy.Seconds()), "jobs/s")
	m.set("wall.job_ms_p50", ms(percentile(p.jobs, 50)), "ms")
	m.set("wall.job_ms_p80", ms(percentile(p.jobs, 80)), "ms")
	m.set("bench.host_speed", hostSpeed(p), "ratio")
	return m
}

// hostSpeed is the host's speed over the phase relative to nominal.
func hostSpeed(p phase) float64 { return ratio(float64(p.calBusy), float64(p.busy)) }
