// Command pacifier records and replays one workload on the simulated
// machine, printing log statistics and the replay verdict, or — with the
// sweep subcommand — runs a whole fleet of such jobs in parallel through
// internal/harness and emits machine-readable results.
//
// Usage:
//
//	pacifier -app radiosity -cores 16 -ops 2000 -seed 1 -mode gra
//	pacifier -litmus sb -seed 3 -nonatomic
//	pacifier -app fft -cores 16 -save fft.rrlog
//	pacifier -load fft.rrlog
//	pacifier verify fft.rrlog
//	pacifier debug -app fft -cores 16 fft.rrlog    # time-travel REPL
//	pacifier profile -app fft -cores 16 -folded fft.folded
//	pacifier sweep -apps fft,lu -cores 16,32 -format csv
//	pacifier bench -o BENCH.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"pacifier/internal/harness"

	"pacifier"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "sweep" {
		sweep(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "bench" {
		bench(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "verify" {
		verify(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "explain" {
		explain(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "debug" {
		debugCmd(os.Args[2:])
		return
	}
	if len(os.Args) > 1 && os.Args[1] == "profile" {
		profileCmd(os.Args[2:])
		return
	}

	var (
		app         = flag.String("app", "", "SPLASH-2-like application (see -list)")
		litmus      = flag.String("litmus", "", "litmus test: sb, mp, wrc, iriw, mp-fenced")
		list        = flag.Bool("list", false, "list applications and exit")
		cores       = flag.Int("cores", 16, "number of cores (threads)")
		ops         = flag.Int("ops", 2000, "memory operations per thread")
		seed        = flag.Uint64("seed", 1, "simulation seed")
		modeName    = flag.String("mode", "gra", "recorder: "+strings.Join(pacifier.ModeNames(), ", "))
		nonatomic   = flag.Bool("nonatomic", false, "model non-atomic writes (PowerPC/ARM style)")
		save        = flag.String("save", "", "write the encoded log to this file")
		compress    = flag.Bool("compress", false, "with -save: wrap the log in the compressed container (loaders auto-detect it)")
		load        = flag.String("load", "", "decode a saved log file (raw or compressed), print its stats, and exit")
		cpuprofile  = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile  = flag.String("memprofile", "", "write a heap profile to this file")
		traceFile   = flag.String("trace", "", "write a Chrome trace (record + replay events) to this file")
		metricsFile = flag.String("metrics", "", "write the run's metrics snapshot JSON to this file")
		profCycles  = flag.Bool("profile-cycles", false, "attribute stall/service cycles per layer (prints the cycle table; adds prof.* counter tracks to -trace)")
	)
	flag.Parse()

	stopProfiles, err := startProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fail("%v", err)
	}
	defer stopProfiles()

	if *list {
		for _, a := range pacifier.Apps() {
			fmt.Println(a)
		}
		return
	}

	if *load != "" {
		blob, err := os.ReadFile(*load)
		if err != nil {
			fail("%v", err)
		}
		a, err := pacifier.AuditLog(blob)
		if err != nil {
			fail("%s: %v", *load, err)
		}
		st := a.Stats
		fmt.Printf("log file        %s (%d bytes, audited)\n", *load, len(blob))
		if a.Compressed {
			fmt.Printf("container       compressed (%d raw bytes, %.2fx)\n",
				a.RawBytes, float64(a.RawBytes)/float64(a.Bytes))
		}
		fmt.Printf("cores           %d\n", a.Cores)
		fmt.Printf("chunks          %d\n", st.Chunks)
		fmt.Printf("D_set entries   %d   P_set %d   value logs %d   pred edges %d\n",
			st.DEntries, st.PEntries, st.VEntries, st.PredEdges)
		fmt.Printf("encoded bytes   %d total (%d chunk skeleton)\n", st.TotalBytes, st.BaseBytes)
		return
	}

	mode, err := pacifier.ParseMode(*modeName)
	if err != nil {
		fail("unknown -mode %q (valid: %s)", *modeName, strings.Join(pacifier.ModeNames(), ", "))
	}

	var w *pacifier.Workload
	switch {
	case *litmus != "":
		w, err = pacifier.Litmus(*litmus)
	case *app != "":
		w, err = pacifier.App(*app, *cores, *ops, *seed)
	default:
		fail("need -app, -litmus or -load (try -list)")
	}
	if err != nil {
		fail("%v", err)
	}

	modes := []pacifier.Mode{mode}
	if mode != pacifier.Karma {
		modes = append(modes, pacifier.Karma) // for the overhead metric
	}
	var tr *pacifier.Tracer
	if *traceFile != "" {
		tr = pacifier.NewTracer(w.Name)
		flushTraceOnInterrupt(*traceFile, tr)
	}
	run, err := pacifier.Record(w, pacifier.Options{Seed: *seed, Atomic: !*nonatomic,
		Tracer: tr, ProfileCycles: *profCycles}, modes...)
	if err != nil {
		fail("record: %v", err)
	}

	st := run.LogStats(mode)
	fmt.Printf("workload        %s (%d cores, %d mem ops)\n", w.Name, len(w.Threads), run.MemOps())
	fmt.Printf("native          %d cycles\n", run.NativeCycles())
	fmt.Printf("recorder        %v\n", mode)
	fmt.Printf("chunks          %d\n", st.Chunks)
	fmt.Printf("log bytes       %d (%.2f bytes/op)\n", st.TotalBytes,
		float64(st.TotalBytes)/float64(run.MemOps()))
	fmt.Printf("D_set entries   %d   P_set %d   value logs %d\n",
		st.DEntries, st.PEntries, st.VEntries)
	if mode != pacifier.Karma {
		if oh, err := run.LogOverhead(mode); err == nil {
			fmt.Printf("vs karma        %+.1f%%\n", oh*100)
		}
	}
	fmt.Printf("LHB max         %d (configured 16)\n", run.LHBMax(mode))
	if *profCycles {
		fmt.Printf("measured record %+.2f%% slowdown (modeled counterpart: harness record%%)\n",
			run.MeasuredRecordSlowdown(mode)*100)
	}

	res, err := run.ReplayTraced(mode, tr)
	if err != nil {
		fail("replay: %v", err)
	}
	fmt.Printf("replay          %d ops, slowdown %+.1f%%\n", res.OpsReplayed, run.Slowdown(res)*100)
	if res.Deterministic() {
		fmt.Println("verdict         DETERMINISTIC (exact reproduction)")
	} else {
		fmt.Printf("verdict         DIVERGED: %d mismatches, %d order breaks\n",
			res.MismatchCount, res.OrderBreaks)
		if res.Divergence != nil {
			fmt.Printf("  %s\n", res.Divergence.String())
		}
		for i, m := range res.Mismatches {
			if i >= 5 {
				break
			}
			fmt.Printf("  %s\n", m.String())
		}
		if mode == pacifier.Karma {
			fmt.Println("  (expected: Karma cannot replay SCVs under relaxed consistency)")
		}
	}

	if *save != "" {
		blob, err := run.EncodedLog(mode)
		if err != nil {
			fail("%v", err)
		}
		if *compress {
			raw := len(blob)
			blob = pacifier.CompressLog(blob)
			fmt.Printf("log compressed  %d -> %d bytes (%.2fx)\n",
				raw, len(blob), float64(raw)/float64(len(blob)))
		}
		if err := os.WriteFile(*save, blob, 0o644); err != nil {
			fail("%v", err)
		}
		fmt.Printf("log written     %s (%d bytes)\n", *save, len(blob))
	}

	if *profCycles {
		fmt.Println()
		if err := run.CycleReport().WriteTable(os.Stdout); err != nil {
			fail("%v", err)
		}
	}

	if *metricsFile != "" {
		if err := pacifier.WriteMetricsFile(*metricsFile, run.Metrics()); err != nil {
			fail("%v", err)
		}
		fmt.Printf("metrics written %s\n", *metricsFile)
	}
	if *traceFile != "" {
		if *profCycles {
			err = pacifier.WriteTraceFileWithCycles(*traceFile, tr, run.CycleReport(), run.NativeCycles())
		} else {
			err = pacifier.WriteTraceFile(*traceFile, tr)
		}
		if err != nil {
			fail("%v", err)
		}
		fmt.Printf("trace written   %s (%d events)\n", *traceFile, tr.Len())
	}
}

// profileCmd records one workload with the cycle-accounting profiler on
// and renders the attribution: the per-layer cycle table on stdout, a
// folded-stack flamegraph file (-folded, feed to flamegraph.pl or
// speedscope), and optionally the event trace with per-core prof.*
// Perfetto counter tracks (-trace).
func profileCmd(args []string) {
	fs := flag.NewFlagSet("pacifier profile", flag.ExitOnError)
	var (
		app       = fs.String("app", "", "SPLASH-2-like application (see pacifier -list)")
		litmus    = fs.String("litmus", "", "litmus test: sb, mp, wrc, iriw, mp-fenced")
		cores     = fs.Int("cores", 16, "number of cores (threads)")
		ops       = fs.Int("ops", 2000, "memory operations per thread")
		seed      = fs.Uint64("seed", 1, "simulation seed")
		modesArg  = fs.String("modes", "gra", `recorder modes to co-record ("all" or a comma list)`)
		nonatomic = fs.Bool("nonatomic", false, "model non-atomic writes")
		folded    = fs.String("folded", "", "write folded stacks (core;component cycles) to this file")
		traceFile = fs.String("trace", "", "write a Chrome trace with prof.* counter tracks to this file")
	)
	fs.Parse(args)

	var modes []pacifier.Mode
	names := pacifier.ModeNames()
	if *modesArg != "all" {
		names = strings.Split(*modesArg, ",")
	}
	for _, name := range names {
		m, err := pacifier.ParseMode(strings.TrimSpace(name))
		if err != nil {
			fail("unknown mode %q (valid: %s)", name, strings.Join(pacifier.ModeNames(), ", "))
		}
		modes = append(modes, m)
	}

	var w *pacifier.Workload
	var err error
	switch {
	case *litmus != "":
		w, err = pacifier.Litmus(*litmus)
	case *app != "":
		w, err = pacifier.App(*app, *cores, *ops, *seed)
	default:
		fail("need -app or -litmus (try pacifier -list)")
	}
	if err != nil {
		fail("%v", err)
	}

	var tr *pacifier.Tracer
	if *traceFile != "" {
		tr = pacifier.NewTracer(w.Name)
	}
	run, err := pacifier.Record(w, pacifier.Options{Seed: *seed, Atomic: !*nonatomic,
		Tracer: tr, ProfileCycles: true}, modes...)
	if err != nil {
		fail("record: %v", err)
	}

	rep := run.CycleReport()
	fmt.Printf("workload        %s (%d cores, %d mem ops, %d native cycles)\n",
		w.Name, len(w.Threads), run.MemOps(), run.NativeCycles())
	for _, m := range modes {
		st := run.LogStats(m)
		fmt.Printf("%-8v         modeled %+.2f%%   measured %+.2f%%   (%d chunks, %d log bytes)\n",
			m, pacifier.ModeledRecordSlowdown(st, run.NativeCycles())*100,
			run.MeasuredRecordSlowdown(m)*100, st.Chunks, st.TotalBytes)
	}
	fmt.Println()
	if err := rep.WriteTable(os.Stdout); err != nil {
		fail("%v", err)
	}

	if *folded != "" {
		var b strings.Builder
		if err := rep.WriteFolded(&b); err != nil {
			fail("%v", err)
		}
		if err := os.WriteFile(*folded, []byte(b.String()), 0o644); err != nil {
			fail("%v", err)
		}
		fmt.Printf("folded stacks   %s\n", *folded)
	}
	if *traceFile != "" {
		if err := pacifier.WriteTraceFileWithCycles(*traceFile, tr, rep, run.NativeCycles()); err != nil {
			fail("%v", err)
		}
		fmt.Printf("trace written   %s (%d events + counter tracks)\n", *traceFile, tr.Len())
	}
}

// flushTraceOnInterrupt arranges for a SIGINT to flush whatever the
// tracer has buffered so far before exiting. The write is atomic (temp
// file + rename), so even an interrupt mid-run can only produce a
// complete, parseable trace file — never a truncated one. The tracer's
// buffer is mutex-protected, so reading it from the signal goroutine
// while the simulation emits is safe.
func flushTraceOnInterrupt(path string, tr *pacifier.Tracer) {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt)
	go func() {
		<-ch
		signal.Stop(ch)
		if err := pacifier.WriteTraceFile(path, tr); err != nil {
			fmt.Fprintf(os.Stderr, "pacifier: interrupted; trace flush failed: %v\n", err)
			exit(130)
		}
		fmt.Fprintf(os.Stderr, "pacifier: interrupted — flushed %d trace events to %s\n",
			tr.Len(), path)
		exit(130)
	}()
}

// explain replays a suspect log file against a freshly recorded
// reference execution of the same workload, and — when the replay
// diverges — names the first divergent event and cross-correlates it
// against the record-side event stream. Exit status 0 means the log
// reproduced the reference execution exactly.
func explain(args []string) {
	fs := flag.NewFlagSet("pacifier explain", flag.ExitOnError)
	var (
		app       = fs.String("app", "", "SPLASH-2-like application the log was recorded from")
		litmus    = fs.String("litmus", "", "litmus test the log was recorded from")
		cores     = fs.Int("cores", 16, "number of cores (threads)")
		ops       = fs.Int("ops", 2000, "memory operations per thread")
		seed      = fs.Uint64("seed", 1, "simulation seed of the original recording")
		modeName  = fs.String("mode", "gra", "recorder mode the log was made under")
		nonatomic = fs.Bool("nonatomic", false, "model non-atomic writes")
		traceFile = fs.String("trace", "", "also write the merged record+replay trace to this file")
	)
	fs.Parse(args)
	if fs.NArg() != 1 {
		fail("usage: pacifier explain [-app|-litmus ...] <logfile>")
	}
	file := fs.Arg(0)

	blob, err := os.ReadFile(file)
	if err != nil {
		fail("%v", err)
	}
	mode, err := pacifier.ParseMode(*modeName)
	if err != nil {
		fail("unknown -mode %q (valid: %s)", *modeName, strings.Join(pacifier.ModeNames(), ", "))
	}
	var w *pacifier.Workload
	switch {
	case *litmus != "":
		w, err = pacifier.Litmus(*litmus)
	case *app != "":
		w, err = pacifier.App(*app, *cores, *ops, *seed)
	default:
		fail("explain needs the original workload: -app or -litmus")
	}
	if err != nil {
		fail("%v", err)
	}

	tr := pacifier.NewTracer(w.Name)
	if *traceFile != "" {
		flushTraceOnInterrupt(*traceFile, tr)
	}
	// Profile the reference record and the replay so a divergence report
	// can show where the cycles went on each side up to the divergence.
	run, err := pacifier.Record(w, pacifier.Options{Seed: *seed, Atomic: !*nonatomic,
		Tracer: tr, ProfileCycles: true}, mode)
	if err != nil {
		fail("record reference: %v", err)
	}
	res, err := run.ReplayLog(blob, mode, tr)
	if err != nil {
		fail("%s: %v", file, err)
	}

	fmt.Printf("log file        %s (%d bytes)\n", file, len(blob))
	fmt.Printf("reference       %s (%d cores, seed %d, mode %v)\n",
		w.Name, len(w.Threads), *seed, mode)
	fmt.Printf("replayed        %d ops\n", res.OpsReplayed)

	if *traceFile != "" {
		if err := pacifier.WriteTraceFile(*traceFile, tr); err != nil {
			fail("%v", err)
		}
		fmt.Printf("trace written   %s (%d events)\n", *traceFile, tr.Len())
	}

	if res.Deterministic() {
		fmt.Println("verdict         DETERMINISTIC (log reproduces the reference execution)")
		return
	}
	fmt.Printf("verdict         DIVERGED: %d mismatches, %d order breaks, %d leftover SSB\n",
		res.MismatchCount, res.OrderBreaks, res.LeftoverSSB)
	if res.Divergence != nil {
		fmt.Printf("cause           %s\n", res.Divergence.String())
	}
	if exp := pacifier.Explain(tr); exp != nil {
		if exp.RecordChunk != nil {
			e := exp.RecordChunk
			fmt.Printf("recorded as     core %d chunk %d: cycles [%d,%d), %d ops, %d predecessors\n",
				e.Core, e.CID, e.At, e.At+e.Dur, e.A, e.B)
		}
		if exp.ReplayChunk != nil {
			e := exp.ReplayChunk
			fmt.Printf("replayed as     core %d chunk %d: cycles [%d,%d), %d ops, stalled %d\n",
				e.Core, e.CID, e.At, e.At+e.Dur, e.A, e.B)
		}
		if exp.PrevOnCore != nil {
			e := exp.PrevOnCore
			fmt.Printf("preceded by     chunk %d on the same core (cycles [%d,%d))\n",
				e.CID, e.At, e.At+e.Dur)
		}
	}
	if res.Prof != nil {
		// Attribution delta up to the divergence point: where the record
		// side spent its cycles versus where the replay stalled before it
		// went wrong. The replay side only ever populates the noc (wake
		// latency) and barrier (dependence wait) components, so large
		// record-side residue in other rows is expected and localizes the
		// layers the replay never re-simulates.
		fmt.Println("\nattribution     record side (reference execution):")
		if err := run.CycleReport().WriteTable(os.Stdout); err != nil {
			fail("%v", err)
		}
		if res.Prof.AttributedTotal() == 0 && res.Divergence != nil {
			// The replay diverged inside the first chunk: no replay-side
			// cycles were attributed, so a record−replay delta table would
			// just reprint the record side as zero-filled deltas.
			fmt.Println("\nattribution     replay side: diverged before first checkpointable position — no replay cycles attributed")
		} else {
			fmt.Println("\nattribution     record - replay, up to the divergence:")
			if err := run.CycleReport().Delta(res.Prof).WriteTable(os.Stdout); err != nil {
				fail("%v", err)
			}
		}
	}
	exit(1)
}

// sweep runs a fleet of record+replay jobs through the harness and
// emits the aggregated result set.
func sweep(args []string) {
	fs := flag.NewFlagSet("pacifier sweep", flag.ExitOnError)
	var (
		appsArg   = fs.String("apps", "all", `applications to sweep ("all" or a comma list)`)
		litmusArg = fs.String("litmus", "", "litmus tests to sweep (comma list)")
		coreArg   = fs.String("cores", "16,32,64", "machine sizes (comma list, app jobs only)")
		ops       = fs.Int("ops", 2000, "memory operations per thread (>= 1)")
		seed      = fs.Uint64("seed", 1, "simulation seed (>= 1)")
		modesArg  = fs.String("modes", "karma,vol,gra",
			`recorder modes, co-recorded per job ("all" or a comma list; valid: `+strings.Join(pacifier.ModeNames(), ", ")+")")
		noReplay   = fs.Bool("no-replay", false, "record only, skip replay verification")
		compress   = fs.Bool("compress", false, "also compress each mode's log and report compressed bytes + modeled record slowdown (feeds the Figure 14 Pareto table)")
		nonatomic  = fs.Bool("nonatomic", false, "model non-atomic writes")
		jobs       = fs.Int("jobs", 0, "parallel simulation jobs (0 = GOMAXPROCS)")
		timeout    = fs.Duration("timeout", 10*time.Minute, "per-job timeout (0 = none)")
		format     = fs.String("format", "jsonl", "output format: jsonl, csv, tables")
		out        = fs.String("o", "", "write output to this file instead of stdout")
		metrics    = fs.Bool("metrics", false, "attach each job's full metrics snapshot to its result")
		traceDir   = fs.String("trace-dir", "", "write per-job Chrome traces (<spec-hash>.trace.json) into this directory")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile to this file")
		logFormat  = fs.String("log-format", "text", "log output format: text, json")
		logLevel   = fs.String("log-level", "info", "log level: debug, info, warn, error")
		profCycles = fs.Bool("profile-cycles", true, "attribute stall/service cycles per layer and emit the measured record slowdown next to the modeled one (Figure 14's meas%% column)")
	)
	fs.Parse(args)

	logger, err := harness.NewLogger(os.Stderr, *logFormat, *logLevel)
	if err != nil {
		fail("%v", err)
	}

	stopProfiles, err := startProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fail("%v", err)
	}

	if err := checkSweepFormat(*format); err != nil {
		fail("%v", err)
	}
	if *ops < 1 {
		fail("bad -ops %d: need at least 1 memory operation per thread", *ops)
	}
	if *seed == 0 {
		fail("bad -seed 0: the seed drives every random choice and must be >= 1")
	}
	var modes []string
	if *modesArg == "all" {
		modes = pacifier.ModeNames()
	} else {
		for _, m := range strings.Split(*modesArg, ",") {
			m = strings.TrimSpace(m)
			if _, err := pacifier.ParseMode(m); err != nil {
				fail("%v", err)
			}
			modes = append(modes, m)
		}
	}

	var specs []harness.JobSpec
	if *appsArg != "" {
		apps := pacifier.Apps()
		if *appsArg != "all" {
			apps = nil
			for _, a := range strings.Split(*appsArg, ",") {
				apps = append(apps, strings.TrimSpace(a))
			}
		}
		var cores []int
		for _, s := range strings.Split(*coreArg, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(s))
			if err != nil || n < 2 || n > 64 {
				fail("bad -cores entry %q", s)
			}
			cores = append(cores, n)
		}
		for _, a := range apps {
			if _, err := pacifier.App(a, 2, 1, 1); err != nil {
				fail("%v", err)
			}
			for _, n := range cores {
				specs = append(specs, harness.JobSpec{
					Kind: "app", Name: a, Cores: n, Ops: *ops, Seed: *seed,
					Atomic: !*nonatomic, Modes: modes, Replay: !*noReplay,
					Compress: *compress, CaptureMetrics: *metrics,
					ProfileCycles: *profCycles,
				})
			}
		}
	}
	for _, l := range strings.Split(*litmusArg, ",") {
		l = strings.TrimSpace(l)
		if l == "" {
			continue
		}
		if _, err := pacifier.Litmus(l); err != nil {
			fail("%v", err)
		}
		specs = append(specs, harness.JobSpec{
			Kind: "litmus", Name: l, Seed: *seed,
			Atomic: !*nonatomic, Modes: modes, Replay: !*noReplay,
			Compress: *compress, CaptureMetrics: *metrics,
			ProfileCycles: *profCycles,
		})
	}
	if len(specs) == 0 {
		fail("sweep: nothing to run (empty -apps and -litmus)")
	}

	opts := harness.Options{Workers: *jobs, Timeout: *timeout, Logger: logger,
		Interrupt: interruptChannel(logger)}
	if *traceDir != "" {
		if err := os.MkdirAll(*traceDir, 0o755); err != nil {
			fail("%v", err)
		}
		opts.TraceDir = *traceDir
	}

	outcomes := harness.Run(specs, opts)
	sum := harness.Summarize(outcomes)
	for _, o := range harness.Errs(outcomes) {
		if errors.Is(o.Err, harness.ErrInterrupted) {
			continue
		}
		logger.Error("sweep job failed", "job", o.Spec.Label(), "err", o.Err)
	}
	results := harness.Results(outcomes)
	if sum.Interrupted > 0 {
		logger.Warn("sweep interrupted: flushing completed results",
			"flushed", len(results), "skipped", sum.Interrupted)
	}

	dst := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fail("%v", err)
		}
		defer f.Close()
		dst = f
	}
	switch *format {
	case "jsonl":
		if err = harness.WriteJSONL(dst, results); err == nil {
			// The trailing {"summary": ...} record carries the scheduling
			// side (failures, interruptions, wall time) the results
			// exclude.
			err = harness.WriteSummaryJSONL(dst, sum)
		}
	case "csv":
		err = harness.WriteCSV(dst, results)
	case "tables":
		harness.FigureTables(dst, results, 0)
	}
	if err != nil {
		fail("emit: %v", err)
	}
	logger.Info("sweep done",
		"jobs", sum.Total, "ok", sum.Succeeded, "failed", sum.Failed,
		"interrupted", sum.Interrupted, "summary", sum.String())
	stopProfiles()
	if sum.Interrupted > 0 {
		exit(130)
	}
	if len(harness.Errs(outcomes)) > 0 {
		exit(1)
	}
}

// checkSweepFormat rejects an unknown sweep -format before any job runs
// and before -o is created.
func checkSweepFormat(format string) error {
	switch format {
	case "jsonl", "csv", "tables":
		return nil
	}
	return fmt.Errorf("unknown -format %q (valid: jsonl, csv, tables)", format)
}

// verifyReport is `pacifier verify -json`'s output schema. It shares
// its schema-version constant with the metrics and trace artifacts.
type verifyReport struct {
	SchemaVersion int    `json:"schema_version"`
	File          string `json:"file"`
	Bytes         int    `json:"bytes"`
	Compressed    bool   `json:"compressed,omitempty"`
	RawBytes      int    `json:"raw_bytes,omitempty"` // decompressed size when Compressed
	Valid         bool   `json:"valid"`
	Failure       string `json:"failure,omitempty"` // "corrupt-encoding" | "invalid-semantics" | "usage" | "error"
	Error         string `json:"error,omitempty"`
	Cores         int    `json:"cores,omitempty"`
	Chunks        int    `json:"chunks,omitempty"`
	PerCoreChunks []int  `json:"per_core_chunks,omitempty"`
	DEntries      int    `json:"dset_entries,omitempty"`
	PEntries      int    `json:"pset_entries,omitempty"`
	VEntries      int    `json:"vlog_entries,omitempty"`
	PredEdges     int    `json:"pred_edges,omitempty"`
}

// verify audits a saved log file against the full pipeline — wire-level
// decode plus the recorder's semantic invariants — and prints a
// structured report. Exit status 0 means the log is safe to replay;
// 1 means it was rejected (with the failure layer identified).
func verify(args []string) {
	fs := flag.NewFlagSet("pacifier verify", flag.ExitOnError)
	jsonOut := fs.Bool("json", false, "emit the report as JSON")
	fs.Parse(args)

	// reject reports a pre-audit failure (bad usage, unreadable file)
	// without breaking the -json contract: machine consumers always get
	// a parseable report on stdout and exit status 1, never a bare
	// stderr line where a JSON document was promised.
	reject := func(file, failure string, err error) {
		if !*jsonOut {
			fail("%v", err)
		}
		rep := verifyReport{SchemaVersion: pacifier.SchemaVersion, File: file,
			Failure: failure, Error: err.Error()}
		out, jerr := json.MarshalIndent(rep, "", "  ")
		if jerr != nil {
			fail("%v", jerr)
		}
		fmt.Println(string(out))
		exit(1)
	}

	if fs.NArg() != 1 {
		reject("", "usage", errors.New("usage: pacifier verify [-json] <logfile>"))
	}
	file := fs.Arg(0)

	blob, err := os.ReadFile(file)
	if err != nil {
		reject(file, "error", err)
	}
	rep := verifyReport{SchemaVersion: pacifier.SchemaVersion, File: file, Bytes: len(blob),
		Compressed: pacifier.IsCompressedLog(blob)}
	audit, err := pacifier.AuditLog(blob)
	switch {
	case err == nil:
		rep.Valid = true
		if audit.Compressed {
			rep.RawBytes = audit.RawBytes
		}
		rep.Cores = audit.Cores
		rep.PerCoreChunks = audit.PerCoreChunks
		rep.Chunks = audit.Stats.Chunks
		rep.DEntries = audit.Stats.DEntries
		rep.PEntries = audit.Stats.PEntries
		rep.VEntries = audit.Stats.VEntries
		rep.PredEdges = audit.Stats.PredEdges
	case errors.Is(err, pacifier.ErrCorruptLog):
		rep.Failure = "corrupt-encoding"
		rep.Error = err.Error()
	case errors.Is(err, pacifier.ErrInvalidLog):
		rep.Failure = "invalid-semantics"
		rep.Error = err.Error()
	default:
		rep.Failure = "error"
		rep.Error = err.Error()
	}

	if *jsonOut {
		out, jerr := json.MarshalIndent(rep, "", "  ")
		if jerr != nil {
			fail("%v", jerr)
		}
		fmt.Println(string(out))
	} else {
		fmt.Printf("log file        %s (%d bytes)\n", rep.File, rep.Bytes)
		if rep.Compressed && rep.Valid {
			fmt.Printf("container       compressed (%d raw bytes)\n", rep.RawBytes)
		}
		if rep.Valid {
			fmt.Println("wire decode     ok")
			fmt.Println("invariants      ok")
			fmt.Printf("cores           %d\n", rep.Cores)
			fmt.Printf("chunks          %d  (per core: %s)\n", rep.Chunks, joinInts(rep.PerCoreChunks))
			fmt.Printf("D_set entries   %d   P_set %d   value logs %d   pred edges %d\n",
				rep.DEntries, rep.PEntries, rep.VEntries, rep.PredEdges)
			fmt.Println("verdict         VALID (safe to replay)")
		} else {
			switch rep.Failure {
			case "corrupt-encoding":
				fmt.Println("wire decode     FAILED (corrupt encoding)")
			case "invalid-semantics":
				fmt.Println("wire decode     ok")
				fmt.Println("invariants      VIOLATED (semantic check failed)")
			default:
				fmt.Println("audit           FAILED")
			}
			fmt.Printf("error           %s\n", rep.Error)
			fmt.Println("verdict         REJECTED")
		}
	}
	if !rep.Valid {
		exit(1)
	}
}

// joinInts formats a small int slice as "a b c" for the report.
func joinInts(xs []int) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.Itoa(x)
	}
	return strings.Join(parts, " ")
}

// profileStop flushes any active profiles. startProfiles replaces it;
// exit() always calls it, so a partial profile survives every exit path
// — fail(), explicit non-zero exits, and the SIGINT handlers — not just
// the success path.
var profileStop = func() {}

// exit flushes profiles and terminates with code. Every os.Exit in this
// command goes through it (os.Exit skips defers, so a direct call would
// silently drop a requested CPU or heap profile).
func exit(code int) {
	profileStop()
	os.Exit(code)
}

func fail(format string, args ...any) {
	fmt.Fprintln(os.Stderr, failMessage(format, args...))
	exit(1)
}

// failMessage formats a fatal error with the command's "pacifier: "
// prefix, once: errors from the pacifier package already carry it.
func failMessage(format string, args ...any) string {
	const prefix = "pacifier: "
	msg := fmt.Sprintf(format, args...)
	if strings.HasPrefix(msg, prefix) {
		return msg
	}
	return prefix + msg
}

// startProfiles begins CPU profiling and arranges heap profiling. The
// returned stop function flushes both and is idempotent — it is also
// installed as profileStop, so exit()/fail() flush the same profiles
// exactly once no matter which path terminates the process.
func startProfiles(cpuprofile, memprofile string) (stop func(), err error) {
	stop = func() {}
	if cpuprofile != "" {
		f, err := os.Create(cpuprofile)
		if err != nil {
			return stop, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return stop, err
		}
	}
	var once sync.Once
	stop = func() {
		once.Do(func() {
			if cpuprofile != "" {
				pprof.StopCPUProfile()
			}
			if memprofile != "" {
				f, err := os.Create(memprofile)
				if err != nil {
					fmt.Fprintf(os.Stderr, "pacifier: %v\n", err)
					return
				}
				if err := pprof.WriteHeapProfile(f); err != nil {
					fmt.Fprintf(os.Stderr, "pacifier: %v\n", err)
				}
				f.Close()
			}
		})
	}
	profileStop = stop
	return stop, nil
}

// interruptChannel converts the first SIGINT into a harness interrupt
// (completed jobs are kept and flushed); a second SIGINT kills the
// process the normal way.
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

// benchCase is one measured benchmark in the BENCH report.
type benchCase struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     int64   `json:"ns_per_op"`
	MemopsPerS  float64 `json:"memops_per_s"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// benchReport is the BENCH_<date>.json schema.
type benchReport struct {
	Date      string      `json:"date"`
	GoVersion string      `json:"go"`
	GOOS      string      `json:"goos"`
	GOARCH    string      `json:"goarch"`
	NumCPU    int         `json:"num_cpu"`
	Workload  string      `json:"workload"`
	Bench     []benchCase `json:"benchmarks"`
}

// bench measures record and replay throughput on one workload and emits
// a machine-readable BENCH_<date>.json report.
func bench(args []string) {
	fs := flag.NewFlagSet("pacifier bench", flag.ExitOnError)
	var (
		app        = fs.String("app", "fft", "application to benchmark")
		cores      = fs.Int("cores", 16, "number of cores (threads)")
		ops        = fs.Int("ops", 1000, "memory operations per thread")
		seed       = fs.Uint64("seed", 1, "simulation seed")
		profCycles = fs.Bool("profile-cycles", false, "also measure record with the cycle-accounting profiler on (reports its overhead as a separate case)")
		out        = fs.String("o", "", "output file (default BENCH_<date>.json)")
		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile to this file")
	)
	fs.Parse(args)

	stopProfiles, err := startProfiles(*cpuprofile, *memprofile)
	if err != nil {
		fail("%v", err)
	}

	w, err := pacifier.App(*app, *cores, *ops, *seed)
	if err != nil {
		fail("%v", err)
	}
	opts := pacifier.Options{Seed: *seed, Atomic: true}

	var memops int64
	record := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			run, err := pacifier.Record(w, opts, pacifier.Granule)
			if err != nil {
				b.Fatal(err)
			}
			memops = run.MemOps()
		}
	})

	// Optionally measure record with the profiler attributing cycles; the
	// delta versus RecordThroughput is the profiler's own cost.
	var recordProfiled testing.BenchmarkResult
	if *profCycles {
		popts := opts
		popts.ProfileCycles = true
		recordProfiled = testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := pacifier.Record(w, popts, pacifier.Granule); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	run, err := pacifier.Record(w, opts, pacifier.Granule)
	if err != nil {
		fail("record: %v", err)
	}
	var replayed int64
	replay := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := run.Replay(pacifier.Granule)
			if err != nil {
				b.Fatal(err)
			}
			replayed = res.OpsReplayed
		}
	})

	report := benchReport{
		Date:      time.Now().UTC().Format("2006-01-02"),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		NumCPU:    runtime.NumCPU(),
		Workload:  fmt.Sprintf("%s/p%d ops=%d seed=%d", *app, *cores, *ops, *seed),
		Bench: []benchCase{
			caseFrom("RecordThroughput", record, memops),
			caseFrom("ReplayThroughput", replay, replayed),
		},
	}
	if *profCycles {
		report.Bench = append(report.Bench,
			caseFrom("RecordThroughputProfiled", recordProfiled, memops))
	}

	path := *out
	if path == "" {
		path = "BENCH_" + report.Date + ".json"
	}
	blob, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fail("%v", err)
	}
	blob = append(blob, '\n')
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		fail("%v", err)
	}
	for _, c := range report.Bench {
		fmt.Printf("%-24s %12d ns/op %14.0f memops/s %8d allocs/op\n",
			c.Name, c.NsPerOp, c.MemopsPerS, c.AllocsPerOp)
	}
	fmt.Printf("report written     %s\n", path)
	stopProfiles()
}

// caseFrom converts a testing.BenchmarkResult plus the per-iteration
// memory-operation count into a report row.
func caseFrom(name string, r testing.BenchmarkResult, opsPerIter int64) benchCase {
	nsPerOp := r.NsPerOp()
	memopsPerS := 0.0
	if nsPerOp > 0 {
		memopsPerS = float64(opsPerIter) / (float64(nsPerOp) / 1e9)
	}
	return benchCase{
		Name:        name,
		Iterations:  r.N,
		NsPerOp:     nsPerOp,
		MemopsPerS:  memopsPerS,
		AllocsPerOp: r.AllocsPerOp(),
		BytesPerOp:  r.AllocedBytesPerOp(),
	}
}
