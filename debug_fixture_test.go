package pacifier_test

import (
	"fmt"
	"testing"

	"pacifier"
	"pacifier/internal/replay"
)

// debugFingerprint hashes the full replay-machine state at the final
// position and bundles the finalized result fields the paper's replay
// metrics hang off. Two sessions with equal fingerprints replayed the
// same schedule to the same machine state, byte for byte.
func debugFingerprint(t *testing.T, s *pacifier.DebugSession) string {
	t.Helper()
	if err := s.SeekTo(s.Total()); err != nil {
		t.Fatal(err)
	}
	h, err := s.SnapshotHash()
	if err != nil {
		t.Fatal(err)
	}
	res := s.Result()
	return fmt.Sprintf("%s/chunks=%d/ops=%d/makespan=%d/stall=%d/mm=%d/ob=%d/ssb=%d",
		h, res.ChunksReplayed, res.OpsReplayed, res.Makespan,
		res.StallCycles, res.MismatchCount, res.OrderBreaks, res.LeftoverSSB)
}

// TestDebugCheckpointRoundTripModes proves the checkpoint wire format is
// a faithful serialization of the replay machine for every recorder
// strategy: a session is interrupted mid-run, its state marshaled,
// restored into a *fresh* machine, and the remainder of the replay must
// land on a final state byte-identical (snapshot hash, result, stats,
// prof counters — all folded into the fingerprint) to an uninterrupted
// run.
func TestDebugCheckpointRoundTripModes(t *testing.T) {
	w, err := pacifier.App("fft", fixtureCores, fixtureOps, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range fixtureModes(t) {
		run, err := pacifier.Record(w, pacifier.Options{
			Seed: 1, Atomic: true, ProfileCycles: true,
		}, mode)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}

		uninterrupted, err := run.DebugSession(nil, mode, 32)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		want := debugFingerprint(t, uninterrupted)

		// Interrupt a second session mid-run and freeze its state.
		ses, err := run.DebugSession(nil, mode, 32)
		if err != nil {
			t.Fatal(err)
		}
		mid := ses.Total() / 2
		if err := ses.SeekTo(mid); err != nil {
			t.Fatal(err)
		}
		frozen, err := ses.Stepper().CaptureState().Marshal()
		if err != nil {
			t.Fatal(err)
		}

		// Thaw into a brand-new machine and replay the remainder.
		resumed, err := run.DebugSession(nil, mode, 32)
		if err != nil {
			t.Fatal(err)
		}
		st, err := replay.UnmarshalState(frozen)
		if err != nil {
			t.Fatal(err)
		}
		if err := resumed.Stepper().RestoreState(st); err != nil {
			t.Fatal(err)
		}
		if resumed.Pos() != mid {
			t.Fatalf("%v: restore landed at pos %d, want %d", mode, resumed.Pos(), mid)
		}
		if got := debugFingerprint(t, resumed); got != want {
			t.Errorf("%v: remainder after restore diverged:\n got %s\nwant %s",
				mode, got, want)
		}
	}
}

// TestDebugSeekAcceptanceFixture runs the ISSUE acceptance criteria over
// the full 20-config fixture: for every app x seed, seeking to an
// arbitrary position and then replaying to completion must yield a final
// state byte-identical to an uninterrupted replay, and reverse-step(n)
// followed by step(n) must return to an identical snapshot hash.
func TestDebugSeekAcceptanceFixture(t *testing.T) {
	configs := 0
	for _, app := range pacifier.Apps() {
		for seed := uint64(1); seed <= fixtureSeeds; seed++ {
			configs++
			w, err := pacifier.App(app, fixtureCores, fixtureOps, seed)
			if err != nil {
				t.Fatal(err)
			}
			run, err := pacifier.Record(w, pacifier.Options{
				Seed: seed, Atomic: true, ProfileCycles: true,
			}, pacifier.Granule)
			if err != nil {
				t.Fatalf("%s seed %d: %v", app, seed, err)
			}

			uninterrupted, err := run.DebugSession(nil, pacifier.Granule, 0)
			if err != nil {
				t.Fatal(err)
			}
			want := debugFingerprint(t, uninterrupted)

			ses, err := run.DebugSession(nil, pacifier.Granule, 0)
			if err != nil {
				t.Fatal(err)
			}
			total := ses.Total()
			// Arbitrary positions, config-dependent but deterministic.
			wander := []int64{total / 3, total - 1, 1, 2 * total / 3, 0}
			for _, pos := range wander {
				if err := ses.SeekTo(pos); err != nil {
					t.Fatalf("%s seed %d: seek %d: %v", app, seed, pos, err)
				}
			}

			// Reverse-step(n) then step(n) is the identity on the state.
			mid := total / 2
			if err := ses.SeekTo(mid); err != nil {
				t.Fatal(err)
			}
			at, err := ses.SnapshotHash()
			if err != nil {
				t.Fatal(err)
			}
			for _, n := range []int64{1, 7} {
				if n > mid {
					// ReverseStep clamps at 0, so the identity only
					// holds for distances within the current position.
					continue
				}
				if err := ses.ReverseStep(n); err != nil {
					t.Fatalf("%s seed %d: rstep %d: %v", app, seed, n, err)
				}
				ses.StepN(n)
				back, err := ses.SnapshotHash()
				if err != nil {
					t.Fatal(err)
				}
				if back != at {
					t.Errorf("%s seed %d: rstep %d + step %d is not the identity: %s -> %s",
						app, seed, n, n, at, back)
				}
			}

			if got := debugFingerprint(t, ses); got != want {
				t.Errorf("%s seed %d: final state after seeks diverged:\n got %s\nwant %s",
					app, seed, got, want)
			}
		}
	}
	if configs != 20 {
		t.Fatalf("acceptance ran %d configs, want 20", configs)
	}
}
