package harness

import (
	"fmt"
	"path/filepath"

	"pacifier/internal/core"
	"pacifier/internal/obs"
	"pacifier/internal/record"
	"pacifier/internal/relog"
	"pacifier/internal/replay"
	"pacifier/internal/trace"
)

// litmusByName mirrors the root package's litmus catalogue; the harness
// sits below the root package (which the cmd/ binaries import alongside
// it), so it builds workloads from internal/trace directly.
func litmusByName(name string) (*trace.Workload, error) {
	switch name {
	case "sb":
		return trace.StoreBuffering(), nil
	case "mp":
		return trace.MessagePassing(), nil
	case "wrc":
		return trace.WRC(), nil
	case "iriw":
		return trace.IRIW(), nil
	case "mp-fenced":
		return trace.MPFenced(), nil
	}
	return nil, fmt.Errorf("harness: unknown litmus test %q", name)
}

// workload materializes the spec's workload generator.
func workload(spec JobSpec) (*trace.Workload, error) {
	switch spec.Kind {
	case "litmus":
		return litmusByName(spec.Name)
	case "app":
		if spec.Cores < 2 {
			return nil, fmt.Errorf("harness: app job needs cores >= 2, got %d", spec.Cores)
		}
		if spec.Ops < 1 {
			return nil, fmt.Errorf("harness: app job needs ops >= 1, got %d", spec.Ops)
		}
		p, err := trace.ProfileByName(spec.Name)
		if err != nil {
			return nil, err
		}
		return p.Generate(spec.Cores, spec.Ops, spec.Seed), nil
	}
	return nil, fmt.Errorf("harness: unknown job kind %q (want \"app\" or \"litmus\")", spec.Kind)
}

// Execute runs one job for real: generate the workload, record it once
// under every requested mode simultaneously (so the logs are directly
// comparable, as the figures need), optionally replay-and-verify each
// mode, and fold the metrics into a Result. It is the default Options
// runner and is safe to call from many goroutines at once — the
// simulator keeps all its state in the values Execute creates here.
func Execute(spec JobSpec) (*Result, error) {
	return executeWith(spec, nil, "")
}

// ExecuteTraced is Execute with per-job event tracing: the job's record
// and replay event streams land in <traceDir>/<spec-hash>.trace.json as
// Chrome trace-event JSON (written atomically after the job finishes).
func ExecuteTraced(spec JobSpec, traceDir string) (*Result, error) {
	return executeWith(spec, obs.New(spec.Label()), traceDir)
}

func executeWith(spec JobSpec, tr *obs.Tracer, traceDir string) (*Result, error) {
	w, err := workload(spec)
	if err != nil {
		return nil, err
	}
	if len(spec.Modes) == 0 {
		return nil, fmt.Errorf("harness: job %s requests no recorder modes", spec.Label())
	}
	modes := make([]record.Mode, len(spec.Modes))
	for i, name := range spec.Modes {
		if modes[i], err = record.ParseMode(name); err != nil {
			return nil, err
		}
	}

	copts := core.DefaultOptions()
	copts.Seed = spec.Seed
	copts.Atomic = spec.Atomic
	copts.Tracer = tr
	copts.ProfileCycles = spec.ProfileCycles
	if spec.MaxChunkOps > 0 {
		copts.MaxChunkOps = spec.MaxChunkOps
	}
	rr, err := core.Record(w, copts, modes...)
	if err != nil {
		return nil, fmt.Errorf("harness: record %s: %w", spec.Label(), err)
	}

	res := &Result{
		Spec:         spec,
		SpecHash:     spec.Hash(),
		NativeCycles: int64(rr.NativeCycles),
		MemOps:       rr.MemOps,
	}
	karma := rr.Recording(record.ModeKarma)
	for _, m := range modes {
		rec := rr.Recording(m)
		if rec == nil {
			return nil, fmt.Errorf("harness: mode %v missing from recording", m)
		}
		mr := ModeResult{
			Mode:       m.String(),
			Chunks:     rec.LogStats.Chunks,
			DEntries:   rec.LogStats.DEntries,
			PEntries:   rec.LogStats.PEntries,
			VEntries:   rec.LogStats.VEntries,
			PredEdges:  rec.LogStats.PredEdges,
			BaseBytes:  rec.LogStats.BaseBytes,
			TotalBytes: rec.LogStats.TotalBytes,
			LHBMax:     rec.LHBMax,
		}
		if karma != nil {
			mr.OverheadVsKarma = core.LogOverhead(karma, rec)
			mr.HasOverhead = true
		}
		mr.RecordSlowdown = record.RecordSlowdown(rec.LogStats, rec.LogStats.TotalBytes, res.NativeCycles)
		if spec.ProfileCycles {
			mr.MeasuredRecordSlowdown = rr.MeasuredRecordSlowdown(rec)
			mr.HasMeasured = true
		}
		if spec.Compress {
			blob := relog.Compress(relog.EncodeLog(rec.Log))
			mr.CompressedBytes = int64(len(blob))
			mr.RecordSlowdownCompressed = record.RecordSlowdownCompressed(
				rec.LogStats, rec.LogStats.TotalBytes, mr.CompressedBytes, res.NativeCycles)
		}
		if spec.Replay {
			rep, err := core.ReplayTraced(rr, m, 0, tr)
			if err != nil {
				return nil, fmt.Errorf("harness: replay %s/%v: %w", spec.Label(), m, err)
			}
			mr.Replay = replayOutcome(rr, rep)
		}
		res.Modes = append(res.Modes, mr)
	}
	// Snapshot last so replay-side histograms (stall cycles) are in.
	if spec.CaptureMetrics {
		res.Metrics = rr.Stats.Snapshot()
	}
	if tr != nil && traceDir != "" {
		path := filepath.Join(traceDir, res.SpecHash+".trace.json")
		if err := obs.WriteChromeFile(path, tr.Events(), record.ModeNames()); err != nil {
			return nil, fmt.Errorf("harness: write trace %s: %w", spec.Label(), err)
		}
	}
	return res, nil
}

func replayOutcome(rr *core.RunResult, rep *replay.Result) *ReplayOutcome {
	return &ReplayOutcome{
		OpsReplayed:   rep.OpsReplayed,
		MismatchCount: rep.MismatchCount,
		OrderBreaks:   rep.OrderBreaks,
		Deterministic: rep.Deterministic(),
		Slowdown:      rr.Slowdown(rep),
	}
}
