package pacifier_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"pacifier"
	"pacifier/internal/relog"
)

// The 20-config determinism fixture: every app recorded at two seeds,
// with the encoded log of every recorder strategy hashed against golden
// values in testdata/fixture_hashes.json. Any change to recorder
// semantics or the wire encoding shows up as a hash diff; hardening-only
// changes (and strategy-plumbing refactors) must keep every hash
// byte-identical.
//
// The same 20 recordings generate the fuzz seed corpus under
// internal/relog/testdata/fuzz/ (raw logs for the decode targets,
// compressed frames for the decompression targets), so the fuzzers
// start from real recorder output. Regenerate both with:
//
//	PACIFIER_UPDATE_FIXTURE=1 go test -run TestDeterminismFixture .

const (
	fixtureSeeds  = 2
	fixtureCores  = 4
	fixtureOps    = 300
	fixtureHashes = "testdata/fixture_hashes.json"
	fuzzDir       = "internal/relog/testdata/fuzz"
)

// profHash canonically serializes a run's cycle-accounting report (the
// folded per-core stacks plus the recorder-by-mode split) and hashes it.
// The fixture records with ProfileCycles on, so the golden "<app>/s<n>/prof"
// keys pin the profiler's attribution the same way the log hashes pin the
// recorders.
func profHash(t *testing.T, run *pacifier.Run) string {
	t.Helper()
	rep := run.CycleReport()
	var b strings.Builder
	if err := rep.WriteFolded(&b); err != nil {
		t.Fatal(err)
	}
	modes := make([]string, 0, len(rep.RecorderByMode))
	for m := range rep.RecorderByMode {
		modes = append(modes, m)
	}
	sort.Strings(modes)
	for _, m := range modes {
		fmt.Fprintf(&b, "mode;%s %d\n", m, rep.RecorderByMode[m])
	}
	sum := sha256.Sum256([]byte(b.String()))
	return hex.EncodeToString(sum[:])
}

// fixtureModes is every recorder strategy, in enum order.
func fixtureModes(t *testing.T) []pacifier.Mode {
	t.Helper()
	var modes []pacifier.Mode
	for _, name := range pacifier.ModeNames() {
		m, err := pacifier.ParseMode(name)
		if err != nil {
			t.Fatal(err)
		}
		modes = append(modes, m)
	}
	return modes
}

func TestDeterminismFixture(t *testing.T) {
	update := os.Getenv("PACIFIER_UPDATE_FIXTURE") != ""

	var golden map[string]string
	if !update {
		blob, err := os.ReadFile(fixtureHashes)
		if err != nil {
			t.Fatalf("missing golden hashes (run with PACIFIER_UPDATE_FIXTURE=1 to generate): %v", err)
		}
		if err := json.Unmarshal(blob, &golden); err != nil {
			t.Fatal(err)
		}
	}

	modes := fixtureModes(t)
	got := map[string]string{}
	configs := 0
	for _, app := range pacifier.Apps() {
		for seed := uint64(1); seed <= fixtureSeeds; seed++ {
			configs++
			w, err := pacifier.App(app, fixtureCores, fixtureOps, seed)
			if err != nil {
				t.Fatal(err)
			}
			// ProfileCycles rides along: the log hashes double as proof
			// that attribution never perturbs the simulated execution.
			run, err := pacifier.Record(w,
				pacifier.Options{Seed: seed, Atomic: true, ProfileCycles: true}, modes...)
			if err != nil {
				t.Fatalf("%s seed %d: %v", app, seed, err)
			}
			got[fmt.Sprintf("%s/s%d/prof", app, seed)] = profHash(t, run)
			for _, mode := range modes {
				blob, err := run.EncodedLog(mode)
				if err != nil {
					t.Fatal(err)
				}
				// The hardened pipeline must accept its own output,
				// raw and wrapped in the compressed container.
				if _, err := pacifier.AuditLog(blob); err != nil {
					t.Fatalf("%s seed %d %v: recorder output fails audit: %v", app, seed, mode, err)
				}
				cblob := pacifier.CompressLog(blob)
				if dec, err := pacifier.DecompressLog(cblob); err != nil {
					t.Fatalf("%s seed %d %v: compressed log fails to decompress: %v", app, seed, mode, err)
				} else if !bytes.Equal(dec, blob) {
					t.Fatalf("%s seed %d %v: compression round trip not byte-identical", app, seed, mode)
				}
				if _, err := pacifier.AuditLog(cblob); err != nil {
					t.Fatalf("%s seed %d %v: compressed log fails audit: %v", app, seed, mode, err)
				}
				sum := sha256.Sum256(blob)
				key := fmt.Sprintf("%s/s%d/%v", app, seed, mode)
				got[key] = hex.EncodeToString(sum[:])
				if mode == pacifier.Granule && update {
					writeFuzzSeeds(t, fmt.Sprintf("seed-%s-s%d", app, seed), blob)
				}
			}
			for _, mode := range []pacifier.Mode{pacifier.Granule, pacifier.CRD} {
				if err := run.VerifyRoundTrip(mode); err != nil {
					t.Fatalf("%s seed %d %v: %v", app, seed, mode, err)
				}
			}
		}
	}
	if configs != 20 {
		t.Fatalf("fixture covers %d configs, want 20", configs)
	}

	if update {
		// json.MarshalIndent sorts map keys, so the file is stable.
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(fixtureHashes), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(fixtureHashes, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d hashes) and fuzz corpus under %s", fixtureHashes, len(got), fuzzDir)
		return
	}

	for key, h := range got {
		if golden[key] == "" {
			t.Errorf("%s: no golden hash (regenerate the fixture)", key)
		} else if golden[key] != h {
			t.Errorf("%s: log hash changed: %s -> %s", key, golden[key], h)
		}
	}
	if len(golden) != len(got) {
		t.Errorf("golden file has %d hashes, fixture produced %d", len(golden), len(got))
	}
}

// writeFuzzSeeds emits one encoded log as a native Go fuzz corpus entry
// for each log-level target (the compression targets get the compressed
// frame of the same log), plus per-core first chunks for the chunk
// target.
func writeFuzzSeeds(t *testing.T, name string, blob []byte) {
	t.Helper()
	entry := "go test fuzz v1\n[]byte(" + strconv.Quote(string(blob)) + ")\n"
	centry := "go test fuzz v1\n[]byte(" + strconv.Quote(string(pacifier.CompressLog(blob))) + ")\n"
	for _, target := range []struct{ name, entry string }{
		{"FuzzDecodeLog", entry},
		{"FuzzRoundTrip", entry},
		{"FuzzDecompress", centry},
		{"FuzzCompressRoundTrip", entry}, // raw payload: the target compresses it itself
	} {
		dir := filepath.Join(fuzzDir, target.name)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), []byte(target.entry), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	log, err := relog.DecodeLog(blob)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(fuzzDir, "FuzzDecodeChunk")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for pid := 0; pid < log.Cores; pid++ {
		chunks := log.Chunks(pid)
		if len(chunks) == 0 {
			continue
		}
		cb := relog.EncodeChunk(chunks[0], 0, 0)
		entry := fmt.Sprintf("go test fuzz v1\n[]byte(%s)\nint64(0)\nint64(0)\nint64(1)\n",
			strconv.Quote(string(cb)))
		file := fmt.Sprintf("%s-p%d", name, pid)
		if err := os.WriteFile(filepath.Join(dir, file), []byte(entry), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
