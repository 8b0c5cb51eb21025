package pacifier

import "testing"

func TestAppGeneration(t *testing.T) {
	for _, name := range Apps() {
		w, err := App(name, 4, 200, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(w.Threads) != 4 {
			t.Fatalf("%s: %d threads", name, len(w.Threads))
		}
	}
	if _, err := App("nope", 4, 200, 1); err == nil {
		t.Fatal("unknown app accepted")
	}
}

// TestAppRejectsNonPositiveSizes: sizes come straight from CLI flags, so
// App must report a bad one as an error, not panic in the generator.
// One thread with one op is the smallest valid workload.
func TestAppRejectsNonPositiveSizes(t *testing.T) {
	for _, tc := range []struct{ threads, ops int }{{0, 100}, {4, 0}, {-1, 100}, {4, -5}} {
		if w, err := App("fft", tc.threads, tc.ops, 1); err == nil {
			t.Errorf("App(fft, %d, %d) = %d threads, want an error", tc.threads, tc.ops, len(w.Threads))
		}
	}
	if _, err := App("fft", 1, 1, 1); err != nil {
		t.Errorf("App(fft, 1, 1): %v", err)
	}
}

func TestLitmusLookup(t *testing.T) {
	for _, name := range []string{"sb", "mp", "wrc", "iriw", "mp-fenced"} {
		if _, err := Litmus(name); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Litmus("nope"); err == nil {
		t.Fatal("unknown litmus accepted")
	}
}

func TestEndToEndGranule(t *testing.T) {
	w, err := App("radiosity", 8, 400, 3)
	if err != nil {
		t.Fatal(err)
	}
	run, err := Record(w, Options{Seed: 3, Atomic: true}, Karma, Granule)
	if err != nil {
		t.Fatal(err)
	}
	if run.MemOps() == 0 || run.NativeCycles() == 0 {
		t.Fatal("empty run")
	}
	res, err := run.Replay(Granule)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Deterministic() {
		t.Fatalf("Granule replay diverged: %d mismatches", res.MismatchCount)
	}
	if sd := run.Slowdown(res); sd < -0.5 || sd > 20 {
		t.Fatalf("slowdown %v out of sane range", sd)
	}
	oh, err := run.LogOverhead(Granule)
	if err != nil {
		t.Fatal(err)
	}
	if oh < -0.1 || oh > 2 {
		t.Fatalf("log overhead %v out of sane range", oh)
	}
	if run.LHBMax(Granule) < 1 {
		t.Fatal("LHB watermark missing")
	}
}

func TestEndToEndLitmusSCV(t *testing.T) {
	w, _ := Litmus("sb")
	for seed := uint64(1); seed <= 10; seed++ {
		run, err := Record(w, Options{Seed: seed, Atomic: true}, Granule)
		if err != nil {
			t.Fatal(err)
		}
		res, err := run.Replay(Granule)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Deterministic() {
			t.Fatalf("seed %d: SB litmus replay diverged", seed)
		}
	}
}

func TestEncodedLogRoundTrip(t *testing.T) {
	w, err := App("fft", 4, 300, 2)
	if err != nil {
		t.Fatal(err)
	}
	run, err := Record(w, Options{Seed: 2, Atomic: true}, Granule)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := run.EncodedLog(Granule)
	if err != nil {
		t.Fatal(err)
	}
	if len(blob) == 0 {
		t.Fatal("empty encoded log")
	}
	if err := run.VerifyRoundTrip(Granule); err != nil {
		t.Fatal(err)
	}
}

func TestScanSeedIndependence(t *testing.T) {
	w, err := App("barnes", 4, 300, 5)
	if err != nil {
		t.Fatal(err)
	}
	run, err := Record(w, Options{Seed: 5, Atomic: true}, Granule)
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(0); seed < 4; seed++ {
		res, err := run.ReplayWithScanSeed(Granule, seed)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Deterministic() {
			t.Fatalf("scan seed %d diverged", seed)
		}
	}
}

func TestNonAtomicEndToEnd(t *testing.T) {
	w, _ := Litmus("iriw")
	for seed := uint64(1); seed <= 5; seed++ {
		run, err := Record(w, Options{Seed: seed, Atomic: false}, Granule)
		if err != nil {
			t.Fatal(err)
		}
		res, err := run.Replay(Granule)
		if err != nil {
			t.Fatal(err)
		}
		if res.MismatchCount != 0 {
			t.Fatalf("seed %d: non-atomic IRIW replay diverged", seed)
		}
	}
}

func TestModesWithoutKarmaHaveNoOverhead(t *testing.T) {
	w, err := App("lu", 4, 200, 1)
	if err != nil {
		t.Fatal(err)
	}
	run, err := Record(w, Options{Seed: 1, Atomic: true}, Granule)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := run.LogOverhead(Granule); err == nil {
		t.Fatal("LogOverhead without a Karma recording should error")
	}
	if run.LHBMax(Karma) != 0 {
		t.Fatal("absent mode should report zero watermark")
	}
}
