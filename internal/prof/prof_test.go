package prof

import (
	"strings"
	"testing"

	"pacifier/internal/sim"
)

func TestComponentNamesAndCounterNames(t *testing.T) {
	if len(Components()) != NumComponents {
		t.Fatalf("Components() = %d entries, want %d", len(Components()), NumComponents)
	}
	seen := map[string]bool{}
	for _, c := range Components() {
		name := c.String()
		if name == "" || strings.Contains(name, "Component(") {
			t.Errorf("component %d has no canonical name", int(c))
		}
		if seen[name] {
			t.Errorf("duplicate component name %q", name)
		}
		seen[name] = true
		if c.Help() == "" {
			t.Errorf("component %q has no help text", name)
		}
	}
	if got, want := CounterName(3, NoC), "prof.c003.noc"; got != want {
		t.Errorf("CounterName = %q, want %q", got, want)
	}
	if got, want := RecorderCounterName(12, "gra"), "prof.c012.recorder.gra"; got != want {
		t.Errorf("RecorderCounterName = %q, want %q", got, want)
	}
	if Component(-1).String() == "" || Component(99).Help() != "" {
		t.Error("out-of-range components must degrade gracefully")
	}
}

// TestDisabledPathZeroAlloc pins the "provably zero-cost when disabled"
// property: attribution through a nil accumulator (what every layer holds
// when Options.ProfileCycles is off) must not allocate.
func TestDisabledPathZeroAlloc(t *testing.T) {
	st := sim.NewStats()
	var l *Lat
	var rl *RecLat
	if n := testing.AllocsPerRun(1000, func() {
		l.Add(st, NoC, 7)
		rl.Add(0, 7)
		_ = rl.Total()
	}); n != 0 {
		t.Fatalf("disabled attribution allocated %.1f per call, want 0", n)
	}
}

// TestEnabledSteadyStateZeroAlloc checks that after the lazy counter
// binding, the hot-path add is allocation-free too.
func TestEnabledSteadyStateZeroAlloc(t *testing.T) {
	st := sim.NewStats()
	l := NewLat(0)
	rl := NewRecLat(st, 1, "gra")
	l.Add(st, NoC, 1) // bind
	rl.Add(0, 1)
	if n := testing.AllocsPerRun(1000, func() {
		l.Add(st, NoC, 7)
		rl.Add(0, 7)
	}); n != 0 {
		t.Fatalf("steady-state attribution allocated %.1f per call, want 0", n)
	}
}

// TestLatRebindsAcrossRegistries: the same Lat attributes into two
// registries in turn; each must get exactly what was added while it was
// bound.
func TestLatRebindsAcrossRegistries(t *testing.T) {
	a, b := sim.NewStats(), sim.NewStats()
	l := NewLat(2)
	l.Add(a, Home, 10)
	l.Add(b, Home, 32)
	l.Add(a, Home, 5)
	if got := a.Counter(CounterName(2, Home)).Value; got != 15 {
		t.Errorf("registry a = %d, want 15", got)
	}
	if got := b.Counter(CounterName(2, Home)).Value; got != 32 {
		t.Errorf("registry b = %d, want 32", got)
	}
	// Non-positive adds and nil registries are ignored.
	l.Add(nil, Home, 100)
	l.Add(a, Home, 0)
	l.Add(a, Home, -3)
	if got := a.Counter(CounterName(2, Home)).Value; got != 15 {
		t.Errorf("registry a after no-op adds = %d, want 15", got)
	}
}

func buildReport(t *testing.T) (*sim.Stats, *Report) {
	t.Helper()
	st := sim.NewStats()
	l0, l1 := NewLat(0), NewLat(1)
	l0.Add(st, L1Hit, 4)
	l0.Add(st, NoC, 40)
	l1.Add(st, Home, 100)
	l1.Add(st, Barrier, 6)
	rg := NewRecLat(st, 2, "gra")
	rk := NewRecLat(st, 2, "karma")
	rg.Add(0, 30)
	rg.Add(1, 8)
	rk.Add(1, 8)
	return st, FromStats(st)
}

func TestFromSnapshotDecodesAttribution(t *testing.T) {
	_, r := buildReport(t)
	if len(r.Cores) != 2 || r.Cores[0].PID != 0 || r.Cores[1].PID != 1 {
		t.Fatalf("cores decoded wrong: %+v", r.Cores)
	}
	if r.Cores[0].Cycles[L1Hit] != 4 || r.Cores[0].Cycles[NoC] != 40 {
		t.Errorf("core 0 breakdown wrong: %+v", r.Cores[0])
	}
	if r.Cores[1].Cycles[Home] != 100 || r.Cores[1].Cycles[Barrier] != 6 {
		t.Errorf("core 1 breakdown wrong: %+v", r.Cores[1])
	}
	if r.Total[Recorder] != 46 {
		t.Errorf("recorder total = %d, want 46", r.Total[Recorder])
	}
	if r.RecorderCycles("gra") != 38 || r.RecorderCycles("karma") != 8 {
		t.Errorf("recorder by mode wrong: %v", r.RecorderByMode)
	}
	want := int64(4 + 40 + 100 + 6 + 46)
	if r.AttributedTotal() != want {
		t.Errorf("AttributedTotal = %d, want %d", r.AttributedTotal(), want)
	}
	if got := r.Cores[0].Total(); got != 4+40+30 {
		t.Errorf("core 0 Total = %d, want 74", got)
	}
}

func TestFromSnapshotIgnoresForeignCounters(t *testing.T) {
	st := sim.NewStats()
	st.Counter("noc.messages").Value = 9
	st.Counter("prof.c000.unknown_component").Value = 9
	st.Counter("prof.bogus").Value = 9
	NewLat(0).Add(st, PW, 3)
	r := FromStats(st)
	if r.AttributedTotal() != 3 || r.Total[PW] != 3 {
		t.Fatalf("foreign counters leaked into the report: %+v", r)
	}
}

func TestDelta(t *testing.T) {
	_, a := buildReport(t)
	st := sim.NewStats()
	NewLat(1).Add(st, Home, 60)
	NewLat(2).Add(st, NoC, 5) // core absent from a
	b := FromStats(st)

	d := a.Delta(b)
	if d.Total[Home] != 40 {
		t.Errorf("delta home = %d, want 40", d.Total[Home])
	}
	if d.Total[NoC] != 35 {
		t.Errorf("delta noc = %d, want 35", d.Total[NoC])
	}
	if len(d.Cores) != 3 {
		t.Fatalf("delta cores = %d, want union of 3", len(d.Cores))
	}
	if d.Cores[2].PID != 2 || d.Cores[2].Cycles[NoC] != -5 {
		t.Errorf("one-sided core not negated: %+v", d.Cores[2])
	}
	if d.RecorderByMode["gra"] != 38 {
		t.Errorf("delta recorder mode map wrong: %v", d.RecorderByMode)
	}
}

func TestRenderersDeterministic(t *testing.T) {
	_, r := buildReport(t)
	var t1, t2, f1, f2 strings.Builder
	if err := r.WriteTable(&t1); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteTable(&t2); err != nil {
		t.Fatal(err)
	}
	if t1.String() != t2.String() {
		t.Error("WriteTable is not deterministic")
	}
	for _, want := range []string{"l1_hit", "recorder", "total", "  gra", "  karma", "c0", "c1"} {
		if !strings.Contains(t1.String(), want) {
			t.Errorf("table missing %q:\n%s", want, t1.String())
		}
	}
	if err := r.WriteFolded(&f1); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteFolded(&f2); err != nil {
		t.Fatal(err)
	}
	if f1.String() != f2.String() {
		t.Error("WriteFolded is not deterministic")
	}
	if !strings.Contains(f1.String(), "core0;noc 40\n") ||
		!strings.Contains(f1.String(), "core1;home 100\n") {
		t.Errorf("folded stacks wrong:\n%s", f1.String())
	}
	if strings.Contains(f1.String(), " 0\n") {
		t.Errorf("folded stacks must skip zero rows:\n%s", f1.String())
	}
}
