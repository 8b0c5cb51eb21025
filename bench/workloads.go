package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sync"
	"time"

	"pacifier/internal/core"
	"pacifier/internal/harness"
	"pacifier/internal/record"
	"pacifier/internal/relog"
	"pacifier/internal/replay"
	"pacifier/internal/sim"
	"pacifier/internal/trace"
)

// workloadDef is one benchmark workload; BENCHMARK.json and README.md say
// why each was chosen. The seed is not part of it: a run generates its
// inputs from the seed it is given.
type workloadDef struct {
	name   string
	kind   string // "sweep", "pipeline" or "debug"
	app    string // "" for sweep: every application
	cores  int
	ops    int // memory operations per thread
	atomic bool
	modes  []string
	// variants is how many inputs a run generates and cycles through, so
	// that one run averages over inputs instead of hanging on one seed's.
	variants int
	// debug-seek only: commands per iteration.
	loads, replays, seeks int
}

var workloads = []workloadDef{
	{name: "sweep-small", kind: "sweep", cores: 16, ops: 1000, atomic: true,
		modes: []string{"karma", "vol", "gra"}, variants: 2},
	{name: "racy-16p", kind: "pipeline", app: "radiosity", cores: 16, ops: 20000, atomic: false,
		modes: []string{"karma", "vol", "gra"}, variants: 4},
	{name: "wide-64p", kind: "pipeline", app: "ocean", cores: 64, ops: 5000, atomic: true,
		modes: []string{"gra"}, variants: 4},
	{name: "debug-seek", kind: "debug", app: "radiosity", cores: 16, ops: 20000, atomic: false,
		modes: []string{"gra"}, variants: 2, loads: 30, replays: 5, seeks: 15},
}

// sweepWorkers is sweep-small's harness pool size. One worker keeps the
// loop on one core, like the reference kernel it is scaled by; a second
// worker would add the other core's neighbours to the noise.
const sweepWorkers = 1

func workloadByName(name string) (workloadDef, error) {
	for _, d := range workloads {
		if d.name == name {
			return d, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// jobSpec is the harness job for one application of the workload.
func (d workloadDef) jobSpec(app string, seed uint64) harness.JobSpec {
	return harness.JobSpec{Kind: "app", Name: app, Cores: d.cores, Ops: d.ops, Seed: seed,
		Atomic: d.atomic, Modes: d.modes, Replay: true}
}

func (d workloadDef) recordModes() []record.Mode {
	ms := make([]record.Mode, len(d.modes))
	for i, n := range d.modes {
		m, err := record.ParseMode(n)
		if err != nil {
			panic(err) // the table above names only valid modes
		}
		ms[i] = m
	}
	return ms
}

func (d workloadDef) options(seed uint64) core.Options {
	o := core.DefaultOptions()
	o.Seed = seed
	o.Atomic = d.atomic
	return o
}

// generate builds the workload's input, timed as trace.generate.
func generate(sc *scope, parent mark, app string, cores, ops int, seed uint64) (*trace.Workload, error) {
	p, err := trace.ProfileByName(app)
	if err != nil {
		return nil, err
	}
	m := sc.begin("trace.generate", parent)
	w := p.Generate(cores, ops, seed)
	sc.end(m)
	return w, nil
}

// outcome is what one iteration did and produced. The digest, which
// covers the simulated totals, must be the same every time an input runs.
type outcome struct {
	digest    string
	jobs      []time.Duration // latency of each unit of user work
	memops    int64           // simulated memops of the executions covered
	attempted int             // records, loads, replays, seeks, harness jobs
	errs      []string

	// Simulated, Granule: encoded log bytes, native cycles, memops of
	// the recorded executions, and replay slowdown in percent.
	logBytes, cycles, simOps int64
	slowdownPct              float64
}

func (o *outcome) fail(format string, args ...any) {
	o.errs = append(o.errs, fmt.Sprintf(format, args...))
}

// check counts one attempted operation, failing it when err is non-nil.
func (o *outcome) check(what string, err error) bool {
	o.attempted++
	if err != nil {
		o.fail("%s: %v", what, err)
		return false
	}
	return true
}

// variant is one generated input of a run.
type variant struct {
	seed  uint64
	specs []harness.JobSpec // sweep
	w     *trace.Workload   // pipeline, debug
	rr    *core.RunResult   // debug: the recording under study
	raw   []byte            // debug: its encoded Granule log
	blob  []byte            // debug: the compressed log
	hash  string            // debug: session state hash after Continue
	ref   *outcome          // the input's first output
}

// run holds a workload's generated inputs between iterations.
type run struct {
	def    workloadDef
	vars   []*variant
	rng    *sim.RNG    // debug: seek targets
	layers *layerStats // traced runs only
}

// newRun generates the workload's inputs from seed. Seeds s and t != s
// give disjoint sets of variant seeds.
func newRun(sc *scope, parent mark, def workloadDef, seed uint64) (*run, error) {
	r := &run{def: def, rng: sim.NewRNG(seed ^ 0x5eec)}
	for i := 0; i < def.variants; i++ {
		v := &variant{seed: seed*uint64(def.variants) + uint64(i)}
		r.vars = append(r.vars, v)
		if def.kind == "sweep" {
			for _, app := range trace.AppNames() {
				v.specs = append(v.specs, def.jobSpec(app, v.seed))
			}
			continue
		}
		w, err := generate(sc, parent, def.app, def.cores, def.ops, v.seed)
		if err != nil {
			return nil, err
		}
		v.w = w
		if def.kind != "debug" {
			continue
		}
		m := sc.begin("core.record", parent)
		v.rr, err = core.Record(w, def.options(v.seed), def.recordModes()...)
		sc.end(m)
		if err != nil {
			return nil, fmt.Errorf("record: %w", err)
		}
		v.raw = encode(sc, parent, v.rr.Recording(record.ModeGranule).Log)
		v.blob = compress(sc, parent, v.raw)
	}
	return r, nil
}

// iterate runs iteration it of the workload's closed loop, on input
// it mod variants, and checks its output against that input's first.
func (r *run) iterate(sc *scope, parent mark, it int) outcome {
	v := r.vars[it%len(r.vars)]
	var o outcome
	switch r.def.kind {
	case "sweep":
		o = r.sweep(sc, parent, v)
	case "pipeline":
		start := time.Now()
		o = r.pipeline(sc, parent, v)
		o.jobs = []time.Duration{time.Since(start)}
	default:
		o = r.debug(sc, parent, v)
	}
	if v.ref == nil {
		v.ref = &o
	} else if o.digest != v.ref.digest {
		o.fail("iteration %d: output differs from the first run of input %d", it, it%len(r.vars))
	}
	return o
}

// digest combines the digests of every input; "" until all have run.
func (r *run) digest() string {
	h := sha256.New()
	for _, v := range r.vars {
		if v.ref == nil {
			return ""
		}
		h.Write([]byte(v.ref.digest))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// simulated returns the modelled machine's numbers for the Granule
// recordings, over every input. They depend only on the seed and the
// simulator, so the digest already pins them; they are not bounded.
func (r *run) simulated() metrics {
	var logBytes, cycles, ops int64
	var slow float64
	for _, v := range r.vars {
		if v.ref == nil || v.ref.simOps == 0 {
			return metrics{}
		}
		logBytes += v.ref.logBytes
		cycles += v.ref.cycles
		ops += v.ref.simOps
		slow += v.ref.slowdownPct
	}
	m := metrics{}
	m.set("sim.log_bytes_per_kop", 1000*float64(logBytes)/float64(ops), "B")
	m.set("sim.replay_slowdown_pct", slow/float64(len(r.vars)), "%")
	m.set("sim.native_cycles_per_memop", float64(cycles)/float64(ops), "cycles")
	return m
}

func (r *run) sweep(sc *scope, parent mark, v *variant) outcome {
	var o outcome
	outs, jobs := runHarness(sc, parent, v.specs, sweepWorkers, r.layers)
	o.jobs = jobs
	results := harness.Results(outs)
	var slow float64
	for _, out := range outs {
		o.attempted++
		if out.Err != nil {
			o.fail("harness job %s: %v", out.Spec.Label(), out.Err)
			continue
		}
		res := out.Result
		o.memops += res.MemOps
		o.simOps += res.MemOps
		o.cycles += res.NativeCycles
		gra := res.Mode("gra")
		if gra == nil || gra.Replay == nil {
			o.fail("harness job %s: no Granule replay", out.Spec.Label())
			continue
		}
		if !gra.Replay.Deterministic {
			o.fail("harness job %s: Granule replay diverged (%d mismatches, %d order breaks)",
				out.Spec.Label(), gra.Replay.MismatchCount, gra.Replay.OrderBreaks)
		}
		o.logBytes += gra.TotalBytes
		slow += gra.Replay.Slowdown
	}
	if len(results) > 0 {
		o.slowdownPct = 100 * slow / float64(len(results))
	}
	canon, err := harness.EncodeCanonical(results)
	if err != nil {
		o.fail("encode results: %v", err)
	}
	sumHex := sha256.Sum256(canon)
	o.digest = hex.EncodeToString(sumHex[:])
	return o
}

// runHarness sweeps specs on a worker pool, timing every job through
// the harness's Run hook. ls, when non-nil, receives the pool's use.
func runHarness(sc *scope, parent mark, specs []harness.JobSpec, workers int, ls *layerStats) ([]harness.Outcome, []time.Duration) {
	var mu sync.Mutex
	var jobs []time.Duration
	m := sc.begin("harness.run", parent)
	hook := func(spec harness.JobSpec) (*harness.Result, error) {
		js, release := sc.withLane()
		defer release()
		jm := js.begin("harness.job", m)
		res, err := harness.Execute(spec)
		d := js.end(jm)
		mu.Lock()
		jobs = append(jobs, d)
		mu.Unlock()
		return res, err
	}
	outs := harness.Run(specs, harness.Options{Workers: workers, Run: hook})
	wall := sc.end(m)
	if ls != nil {
		ls.poolUtil = append(ls.poolUtil, float64(sum(jobs))/(float64(min(workers, len(specs)))*float64(wall)))
	}
	return outs, jobs
}

// pipeline is one job: record, save, load and replay one execution.
func (r *run) pipeline(sc *scope, parent mark, v *variant) outcome {
	var o outcome
	m := sc.begin("core.record", parent)
	rr, err := core.Record(v.w, r.def.options(v.seed), r.def.recordModes()...)
	sc.end(m)
	if !o.check("record", err) {
		return o
	}
	o.memops = rr.MemOps
	raw := encode(sc, parent, rr.Recording(record.ModeGranule).Log)
	blob := compress(sc, parent, raw)
	dl, err := load(sc, parent, blob, raw, true)
	if !o.check("load", err) {
		return o
	}
	r.replayOnce(sc, parent, &o, rr, dl, raw)
	return o
}

// replayLog batch-replays a loaded Granule log against rr's recorded
// outcomes and fails unless every recorded value is reproduced. Order
// breaks are not failures: on some seeds the non-atomic recorder leaves
// a chunk-DAG cycle that the replayer breaks, with values still exact
// (a known gap); their count is part of the digest instead.
func (r *run) replayLog(sc *scope, parent mark, rr *core.RunResult, dl *relog.Log) (*replay.Result, error) {
	m := sc.begin("replay.run", parent)
	res, err := core.ReplayExternal(rr, dl, record.ModeGranule, nil)
	sc.end(m)
	if err != nil {
		return nil, err
	}
	if err := exact(res); err != nil {
		return nil, err
	}
	if r.layers != nil {
		r.layers.replayOps += res.OpsReplayed
	}
	return res, nil
}

func exact(res *replay.Result) error {
	if res.MismatchCount != 0 || res.LeftoverSSB != 0 || res.DefectCount != 0 {
		return fmt.Errorf("diverged: %d mismatches, %d leftover delayed stores, %d defects",
			res.MismatchCount, res.LeftoverSSB, res.DefectCount)
	}
	return nil
}

// replayOnce replays dl and folds the replay into the iteration's digest
// and simulated numbers.
func (r *run) replayOnce(sc *scope, parent mark, o *outcome, rr *core.RunResult, dl *relog.Log, raw []byte) {
	res, err := r.replayLog(sc, parent, rr, dl)
	if !o.check("replay", err) {
		return
	}
	d := digest(raw, int64(rr.NativeCycles), rr.MemOps,
		res.OpsReplayed, res.MismatchCount, res.OrderBreaks, int64(res.Makespan))
	if o.digest != "" && o.digest != d {
		o.fail("replay digest changed within an iteration")
	}
	o.digest = d
	o.logBytes = rr.Recording(record.ModeGranule).LogStats.TotalBytes
	o.cycles = int64(rr.NativeCycles)
	o.simOps = rr.MemOps
	o.slowdownPct = 100 * rr.Slowdown(res)
}

func (r *run) debug(sc *scope, parent mark, v *variant) outcome {
	var o outcome
	o.memops = v.rr.MemOps
	var dl *relog.Log
	for i := 0; i < r.def.loads; i++ {
		t := time.Now()
		l, err := load(sc, parent, v.blob, v.raw, i == 0)
		o.jobs = append(o.jobs, time.Since(t))
		if o.check("load", err) {
			dl = l
		}
	}
	if dl == nil {
		return o
	}
	for i := 0; i < r.def.replays; i++ {
		t := time.Now()
		r.replayOnce(sc, parent, &o, v.rr, dl, v.raw)
		o.jobs = append(o.jobs, time.Since(t))
	}

	t := time.Now()
	s, err := openSession(sc, parent, v.rr, dl, r.layers)
	o.jobs = append(o.jobs, time.Since(t))
	var hash string
	if err == nil {
		hash, err = s.SnapshotHash()
	}
	if err == nil && v.hash != "" && hash != v.hash {
		err = fmt.Errorf("state after Continue hashes %s, first run saw %s", hash[:12], v.hash[:12])
	}
	if !o.check("open session", err) {
		return o
	}
	v.hash = hash
	for i := 0; i < r.def.seeks; i++ {
		t := time.Now()
		err := seek(sc, parent, s, int64(r.rng.Intn(int(s.Total())+1)), r.layers)
		o.jobs = append(o.jobs, time.Since(t))
		o.check("seek", err)
	}
	err = seek(sc, parent, s, s.Total(), r.layers)
	if err == nil {
		var end string
		if end, err = s.SnapshotHash(); err == nil && end != hash {
			err = fmt.Errorf("SeekTo(total) hashes %s, Continue reached %s", end[:12], hash[:12])
		}
	}
	o.check("seek to end", err)
	return o
}

// digest identifies an iteration's output: the Granule encoded log, the
// native execution it recorded, and the replay of it.
func digest(raw []byte, nums ...int64) string {
	h := sha256.New()
	h.Write(raw)
	for _, v := range nums {
		h.Write(binary.LittleEndian.AppendUint64(nil, uint64(v)))
	}
	return hex.EncodeToString(h.Sum(nil))
}

func encode(sc *scope, parent mark, l *relog.Log) []byte {
	m := sc.begin("relog.encode", parent)
	b := relog.EncodeLog(l)
	sc.end(m)
	return b
}

func compress(sc *scope, parent mark, raw []byte) []byte {
	m := sc.begin("relog.compress", parent)
	b := relog.Compress(raw)
	sc.end(m)
	return b
}

// load is the -load user path: decompress, decode, validate. With
// verify it also checks that both codecs round-trip byte for byte.
func load(sc *scope, parent mark, blob, raw []byte, verify bool) (*relog.Log, error) {
	m := sc.begin("relog.decompress", parent)
	got, err := relog.Decompress(blob)
	sc.end(m)
	if err != nil {
		return nil, fmt.Errorf("decompress: %w", err)
	}
	if verify && !bytes.Equal(got, raw) {
		return nil, fmt.Errorf("compress then decompress changed the log")
	}
	m = sc.begin("relog.decode", parent)
	l, err := relog.DecodeLog(got)
	sc.end(m)
	if err != nil {
		return nil, fmt.Errorf("decode: %w", err)
	}
	if verify && !bytes.Equal(relog.EncodeLog(l), raw) {
		return nil, fmt.Errorf("decode then encode changed the log")
	}
	m = sc.begin("relog.validate", parent)
	err = relog.Validate(l)
	sc.end(m)
	if err != nil {
		return nil, fmt.Errorf("validate: %w", err)
	}
	return l, nil
}
