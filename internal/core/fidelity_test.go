package core

import (
	"fmt"
	"testing"

	"pacifier/internal/record"
	"pacifier/internal/trace"
)

// knownGaps are named regression configs that pin a fidelity gap as it
// stands today: non-atomic radiosity at 16 cores and 20k ops, whose
// Granule logs replay with a few value mismatches (ROADMAP item 2,
// EXPERIMENTS.md "Known fidelity gaps"). The counts and the first
// divergence are asserted exactly, so a change to the replayer that
// moves them fails here, and a fix to the recorder flips them on
// purpose — at which point the entry is updated to the exact replay.
var knownGaps = []struct {
	name       string
	app        string
	cores, ops int
	seed       uint64
	mismatches []string // every mismatch, in replay order
	breaks     int64
	divergence string
}{
	{
		// Two loads of one word read a value the log cannot explain,
		// with no order break before them.
		name: "radiosity-16p-20k-nonatomic-s128", app: "radiosity", cores: 16, ops: 20000, seed: 128,
		mismatches: []string{
			"core 9 sn 256 R @0x16498: got 10995116277895 want 8796093022378 (memory)",
			"core 0 sn 543 R @0x16498: got 10995116277895 want 8796093022378 (memory)",
		},
		divergence: "first divergence: core 9 chunk 2 sn 256: value-mismatch (expected 8796093022378, observed 10995116277895) — (memory)",
	},
	{
		// A chunk-DAG cycle forces two order breaks; two mismatches follow.
		name: "radiosity-16p-20k-nonatomic-s124", app: "radiosity", cores: 16, ops: 20000, seed: 124,
		mismatches: []string{
			"core 15 sn 1473 R @0x164e8: got 4398046512515 want 1099511629020 (memory)",
			"core 14 sn 4486 R @0x16288: got 2199023260129 want 12094627909298 (memory)",
		},
		breaks:     2,
		divergence: "first divergence: core 3 chunk 24 sn 0: order-break — chunk ts=91 force-started despite 10 unsatisfied predecessor(s)",
	},
}

func TestKnownNonAtomicGranuleGaps(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, g := range knownGaps {
		t.Run(g.name, func(t *testing.T) {
			p, err := trace.ProfileByName(g.app)
			if err != nil {
				t.Fatal(err)
			}
			opts := DefaultOptions()
			opts.Seed = g.seed
			opts.Atomic = false
			rr, err := Record(p.Generate(g.cores, g.ops, g.seed), opts, record.ModeGranule)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Replay(rr, record.ModeGranule, 0)
			if err != nil {
				t.Fatal(err)
			}
			if res.MismatchCount != int64(len(g.mismatches)) || res.OrderBreaks != g.breaks ||
				res.LeftoverSSB != 0 || res.DefectCount != 0 {
				t.Fatalf("%d mismatches, %d order breaks, %d leftover SSB, %d defects; want %d, %d, 0, 0",
					res.MismatchCount, res.OrderBreaks, res.LeftoverSSB, res.DefectCount,
					len(g.mismatches), g.breaks)
			}
			for i, m := range res.Mismatches {
				if m.String() != g.mismatches[i] {
					t.Errorf("mismatch %d: %s\n want %s", i, m, g.mismatches[i])
				}
			}
			if got := fmt.Sprint(res.Divergence); got != g.divergence {
				t.Errorf("%s\nwant %s", got, g.divergence)
			}
		})
	}
}
