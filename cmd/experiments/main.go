// Command experiments regenerates the paper's evaluation (Section 6):
// Figure 11 (log size), Figure 12 (replay speed) and Figure 13 (LHB
// occupancy), printing one table per figure in the paper's layout, plus
// a strategy Pareto study ("Figure 14") comparing every recorder
// strategy on log bytes vs record slowdown vs replay slowdown, raw and
// compressed.
//
// The sweep — one job per (app, machine size), each recorded under
// Karma, Vol and Gra simultaneously and replayed under all three — runs
// on the internal/harness worker pool, in parallel across GOMAXPROCS.
// Every run simulates every job, so the tables always come from the
// code being run.
//
// Usage:
//
//	experiments            # all figures
//	experiments -fig 11    # one figure
//	experiments -ops 4000 -cores 16,32,64
//	experiments -jobs 8
package main

import (
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"pacifier/internal/harness"
	"pacifier/internal/record"

	"pacifier"
)

// interruptChannel converts SIGINT into a harness interrupt: the first
// ^C stops dispatching and flushes completed results; a second ^C kills
// the process the normal way.
func interruptChannel(logger *slog.Logger) <-chan struct{} {
	interrupt := make(chan struct{})
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt)
	go func() {
		<-ch
		signal.Stop(ch)
		logger.Warn("interrupted — flushing completed results (^C again to kill)")
		close(interrupt)
	}()
	return interrupt
}

func main() {
	var (
		fig        = flag.Int("fig", 0, "figure to regenerate (11, 12, 13, 14 = strategy Pareto; 0 = all)")
		ops        = flag.Int("ops", 2000, "memory operations per thread (>= 1)")
		coreArg    = flag.String("cores", "16,32,64", "machine sizes")
		seed       = flag.Uint64("seed", 1, "simulation seed (>= 1)")
		jobs       = flag.Int("jobs", 0, "parallel simulation jobs (0 = GOMAXPROCS)")
		timeout    = flag.Duration("timeout", 10*time.Minute, "per-job timeout (0 = none)")
		partialOut = flag.String("partial-out", "experiments_partial.jsonl",
			"on SIGINT, flush completed results as JSON lines to this file")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file")
		metricsOut = flag.String("metrics", "",
			"capture each job's metrics snapshot and write the full result set as JSON lines to this file")
		traceDir = flag.String("trace-dir", "",
			"write per-job Chrome traces (<spec-hash>.trace.json) into this directory")
		logFormat = flag.String("log-format", "text", "log output format: text, json")
		logLevel  = flag.String("log-level", "info", "log level: debug, info, warn, error")
	)
	flag.Parse()

	logger, lerr := harness.NewLogger(os.Stderr, *logFormat, *logLevel)
	if lerr != nil {
		fmt.Fprintf(os.Stderr, "experiments: %v\n", lerr)
		os.Exit(1)
	}

	// finish flushes any requested profiles before exiting; os.Exit skips
	// defers, so every exit path below must go through it.
	profiling := false
	finish := func(code int) {
		if profiling {
			pprof.StopCPUProfile()
		}
		if *memprofile != "" {
			if f, err := os.Create(*memprofile); err == nil {
				pprof.WriteHeapProfile(f)
				f.Close()
			} else {
				fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			}
		}
		os.Exit(code)
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			os.Exit(1)
		}
		profiling = true
	}

	// Validate everything up front: a bad value must be a clear CLI
	// error here, not a panic deep inside workload generation.
	if err := checkFig(*fig); err != nil {
		fmt.Fprintln(os.Stderr, err)
		finish(1)
	}
	if *ops < 1 {
		fmt.Fprintf(os.Stderr, "bad -ops %d: need at least 1 memory operation per thread\n", *ops)
		finish(1)
	}
	if *seed == 0 {
		fmt.Fprintf(os.Stderr, "bad -seed 0: the seed drives every random choice and must be >= 1\n")
		finish(1)
	}
	var cores []int
	for _, s := range strings.Split(*coreArg, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || n < 2 || n > 64 {
			fmt.Fprintf(os.Stderr, "bad -cores entry %q\n", s)
			finish(1)
		}
		cores = append(cores, n)
	}

	// One job per (app, cores): all figures come from the same execution.
	// Figures 11-13 need Karma, Vol and Gra; the strategy Pareto table
	// (Figure 14) needs every recorder strategy plus the compressed-log
	// measurements, so those runs co-record all modes with Compress set,
	// and profile cycles to fill its measured-slowdown column. The
	// recorders and the profiler are passive observers of one execution,
	// so neither changes the numbers the other figures read.
	modes := []string{"karma", "vol", "gra"}
	compress := false
	if *fig == 0 || *fig == 14 {
		modes = record.ModeNames()
		compress = true
	}
	var specs []harness.JobSpec
	for _, app := range pacifier.Apps() {
		for _, n := range cores {
			specs = append(specs, harness.JobSpec{
				Kind:           "app",
				Name:           app,
				Cores:          n,
				Ops:            *ops,
				Seed:           *seed,
				Atomic:         true,
				Modes:          modes,
				Replay:         true,
				Compress:       compress,
				ProfileCycles:  compress,
				CaptureMetrics: *metricsOut != "",
			})
		}
	}

	opts := harness.Options{
		Workers:   *jobs,
		Timeout:   *timeout,
		Logger:    logger,
		Interrupt: interruptChannel(logger),
	}
	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "experiments: %v\n", err)
			finish(1)
		}
		opts.TraceDir = *traceDir
	}

	outcomes := harness.Run(specs, opts)
	sum := harness.Summarize(outcomes)

	var failed []harness.Outcome
	for _, o := range harness.Errs(outcomes) {
		if errors.Is(o.Err, harness.ErrInterrupted) {
			continue
		}
		failed = append(failed, o)
		logger.Error("job failed", "job", o.Spec.Label(), "err", o.Err)
	}
	results := harness.Results(outcomes)
	for _, r := range results {
		if m := r.Mode("gra"); m != nil && m.Replay != nil && !m.Replay.Deterministic {
			logger.Warn("Granule replay diverged", "app", r.Spec.Name, "cores", r.Spec.Cores)
		}
	}
	logger.Info("sweep done",
		"jobs", sum.Total, "ok", sum.Succeeded, "failed", sum.Failed,
		"interrupted", sum.Interrupted, "summary", sum.String())

	if interrupted := sum.Interrupted; interrupted > 0 {
		// Partial sweep: the figure tables would silently look complete,
		// so flush what finished as JSON lines instead.
		f, err := os.Create(*partialOut)
		if err != nil {
			logger.Error("partial flush failed", "err", err)
			finish(1)
		}
		err = harness.WriteJSONL(f, results)
		if err == nil {
			err = harness.WriteSummaryJSONL(f, sum)
		}
		if err != nil {
			logger.Error("partial flush failed", "err", err)
			f.Close()
			finish(1)
		}
		f.Close()
		logger.Warn("interrupted: flushed completed results",
			"done", len(results), "total", len(specs), "file", *partialOut)
		finish(130)
	}

	if *metricsOut != "" {
		// Results carry the metrics snapshots (spec.CaptureMetrics), so
		// the JSONL stream is the metrics artifact. WriteJSONL emits in
		// canonical hash order; the file is deterministic across runs.
		f, err := os.Create(*metricsOut)
		if err != nil {
			logger.Error("metrics write failed", "err", err)
			finish(1)
		}
		err = harness.WriteJSONL(f, results)
		if err == nil {
			err = harness.WriteSummaryJSONL(f, sum)
		}
		if err != nil {
			logger.Error("metrics write failed", "err", err)
			f.Close()
			finish(1)
		}
		f.Close()
		logger.Info("results with metrics written", "results", len(results), "file", *metricsOut)
	}

	harness.FigureTables(os.Stdout, results, *fig)

	if len(failed) > 0 {
		finish(1)
	}
	finish(0)
}

// checkFig rejects a -fig value that names no table: FigureTables would
// print nothing for it after running the whole sweep.
func checkFig(fig int) error {
	switch fig {
	case 0, 11, 12, 13, 14:
		return nil
	}
	return fmt.Errorf("bad -fig %d: want 11, 12, 13, 14 (strategy Pareto) or 0 (all)", fig)
}
