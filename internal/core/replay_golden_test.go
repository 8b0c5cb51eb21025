package core

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"pacifier/internal/record"
	"pacifier/internal/replay"
	"pacifier/internal/sim"
	"pacifier/internal/trace"
)

// replayGolden pins what replay produces: one line per configuration and
// recorder mode, naming both and the SHA-256 of the replay's results
// (see replayResultBytes), then one line counting the replays that
// diverge in each way the replayer reports.
const replayGolden = "testdata/replay_results.golden"

// replayGoldenConfig is one recording the replay golden replays under
// every recorder mode.
type replayGoldenConfig struct {
	name   string
	w      *trace.Workload
	seed   uint64
	atomic bool
}

// replayGoldenConfigs are the 20-config determinism fixture (every app
// at seeds 1-2, 4 cores x 300 ops, atomic), the SB litmus at seeds 1-4,
// IRIW with non-atomic writes, four racy apps at 16 cores in both
// atomicities and radix at 64 cores. Between them the replays take every
// replayer path: value mismatches, defects, order breaks and parked
// delayed stores.
func replayGoldenConfigs(t *testing.T) []replayGoldenConfig {
	t.Helper()
	app := func(name string, cores, ops int, seed uint64) *trace.Workload {
		p, err := trace.ProfileByName(name)
		if err != nil {
			t.Fatal(err)
		}
		return p.Generate(cores, ops, seed)
	}
	var cs []replayGoldenConfig
	for _, p := range trace.Profiles() {
		for seed := uint64(1); seed <= 2; seed++ {
			cs = append(cs, replayGoldenConfig{fmt.Sprintf("%s-4p-300-s%d", p.Name, seed), app(p.Name, 4, 300, seed), seed, true})
		}
	}
	for seed := uint64(1); seed <= 4; seed++ {
		cs = append(cs, replayGoldenConfig{fmt.Sprintf("sb-s%d", seed), trace.StoreBuffering(), seed, true})
	}
	cs = append(cs, replayGoldenConfig{"iriw-nonatomic-s3", trace.IRIW(), 3, false})
	for _, name := range []string{"cholesky", "radix", "radiosity", "barnes"} {
		for _, atomic := range []bool{true, false} {
			label := fmt.Sprintf("%s-16p-2000-s1", name)
			if !atomic {
				label += "-nonatomic"
			}
			cs = append(cs, replayGoldenConfig{label, app(name, 16, 2000, 1), 1, atomic})
		}
	}
	return append(cs, replayGoldenConfig{"radix-64p-2000-s1-nonatomic", app("radix", 64, 2000, 1), 1, false})
}

// replayResultBytes replays one recording three ways and returns the
// bytes the golden hashes: the JSON of the batch replay's Result (shared
// op index), the final memory of a second batch replay (private index)
// sorted by address, and a stepper's captured State at positions 0, 1/3,
// 2/3 and after Finish. Restoring the 1/3 State and stepping on must
// reach the 2/3 State again.
func replayResultBytes(t *testing.T, rr *RunResult, mode record.Mode) ([]byte, *replay.Result) {
	t.Helper()
	var out bytes.Buffer
	res, err := Replay(rr, mode, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	out.Write(b)

	log := rr.Recording(mode).Log
	_, mem, err := replay.RunWithMemory(log, rr.Workload, rr.Records, replay.Config{})
	if err != nil {
		t.Fatal(err)
	}
	words := make([]replay.MemState, 0, len(mem))
	for a, v := range mem {
		words = append(words, replay.MemState{Addr: uint64(a), Val: v})
	}
	slices.SortFunc(words, func(a, b replay.MemState) int { return cmp.Compare(a.Addr, b.Addr) })
	for _, w := range words {
		fmt.Fprintf(&out, "\n%#x=%d", w.Addr, w.Val)
	}

	cfg := replay.Config{Stats: sim.NewStats(), Profile: true, Index: rr.opIndex()}
	st, err := replay.NewStepper(log, rr.Workload, rr.Records, cfg)
	if err != nil {
		t.Fatal(err)
	}
	capture := func() []byte {
		b, err := st.CaptureState().Marshal()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	stepTo := func(pos int64) {
		for st.Pos() < pos {
			if _, ok := st.Step(); !ok {
				t.Fatalf("stepper stopped at %d before %d", st.Pos(), pos)
			}
		}
	}
	total := int64(st.TotalChunks())
	var states [][]byte
	for _, pos := range []int64{0, total / 3, 2 * total / 3} {
		stepTo(pos)
		states = append(states, capture())
	}
	stepTo(total)
	st.Finish()
	states = append(states, capture())
	for _, s := range states {
		out.WriteByte('\n')
		out.Write(s)
	}

	third, err := replay.UnmarshalState(states[1])
	if err != nil {
		t.Fatal(err)
	}
	if err := st.RestoreState(third); err != nil {
		t.Fatal(err)
	}
	stepTo(2 * total / 3)
	if !bytes.Equal(capture(), states[2]) {
		t.Errorf("%v: restoring the 1/3 state and stepping to 2/3 does not reach the captured 2/3 state", mode)
	}
	return out.Bytes(), res
}

// TestReplayResultsGolden: every replay of the configurations above
// produces exactly the pinned Result, final memory and checkpoint
// States, under every recorder mode. Run with
// PACIFIER_UPDATE_REPLAY_GOLDEN=1 to rewrite the golden; a change to the
// replayer that keeps its results must pass without that. The set must
// keep reaching each kind of divergence the replayer reports, so a pass
// covers the mismatch, defect and order-break paths too.
func TestReplayResultsGolden(t *testing.T) {
	var got strings.Builder
	got.WriteString("# config, mode, SHA-256 of Result JSON, final memory and states at 0, 1/3, 2/3, end (replay_golden_test.go)\n")
	var mismatched, defective, broken int
	for _, c := range replayGoldenConfigs(t) {
		opts := DefaultOptions()
		opts.Seed, opts.Atomic = c.seed, c.atomic
		rr, err := Record(c.w, opts, record.AllModes()...)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		for _, mode := range record.AllModes() {
			b, res := replayResultBytes(t, rr, mode)
			fmt.Fprintf(&got, "%s %v %x\n", c.name, mode, sha256.Sum256(b))
			if res.MismatchCount > 0 {
				mismatched++
			}
			if res.DefectCount > 0 {
				defective++
			}
			if res.OrderBreaks > 0 {
				broken++
			}
		}
	}
	fmt.Fprintf(&got, "# replays with mismatches %d, with defects %d, with order breaks %d\n", mismatched, defective, broken)
	if mismatched == 0 || defective == 0 || broken == 0 {
		t.Errorf("the golden's replays reach %d mismatching, %d defective and %d order-breaking replays; each kind must occur",
			mismatched, defective, broken)
	}
	if os.Getenv("PACIFIER_UPDATE_REPLAY_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(replayGolden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(replayGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("replay results differ from %s:\ngot:\n%swant:\n%s", replayGolden, got.String(), want)
	}
}
