package core

import (
	"crypto/sha256"
	"encoding/hex"
	"strings"
	"testing"

	"pacifier/internal/record"
	"pacifier/internal/relog"
	"pacifier/internal/trace"
)

// largeGoldens pin configurations the 20-config fixture (4 cores, 300
// ops) never reaches: 64-core machines, and radix at 16 cores, whose
// store buffers fill up so the profiler's sb_full attribution is
// exercised. Each entry pins native cycles, retired memops, the SHA-256
// of every encoded log, and the hash of the folded cycle report.
var largeGoldens = []struct {
	name       string
	app        string
	cores, ops int
	seed       uint64
	atomic     bool
	modes      []record.Mode
	cycles     int64
	memops     int64
	logs       []string // per mode, SHA-256 of relog.EncodeLog
	prof       string   // SHA-256 of the folded cycle report
	sbFullRows int      // cores with a non-zero sb_full line
}{
	{
		name: "radix-16p-1k-s4", app: "radix", cores: 16, ops: 1000, seed: 4, atomic: true,
		modes:  []record.Mode{record.ModeGranule},
		cycles: 14860, memops: 8158,
		logs: []string{
			"3de4b611726d655fc9547195bd56cb2cbc69deeba23bfd83a091a696e4029b3c",
		},
		prof:       "52565e39ca989406defd5975cabb4273d801e34829ba40d4bc639d361aa62dfa",
		sbFullRows: 3,
	},
	{
		name: "radix-16p-1k-s5", app: "radix", cores: 16, ops: 1000, seed: 5, atomic: true,
		modes:  []record.Mode{record.ModeGranule},
		cycles: 15076, memops: 8176,
		logs: []string{
			"c3b2d56749322df86cba82fda225ceeedc6c5a1ec26d1add95b852360e16fe82",
		},
		prof:       "768444ded5c42615d2806de8501ac5194b6dc2aedaa04ef081336b36be342607",
		sbFullRows: 2,
	},
	{
		name: "radix-16p-1k-s6", app: "radix", cores: 16, ops: 1000, seed: 6, atomic: true,
		modes:  []record.Mode{record.ModeGranule},
		cycles: 14894, memops: 8189,
		logs: []string{
			"209492476d86d4d7ec4b02ff2b088922173bf158e546d2f1f479d61b481e6c51",
		},
		prof:       "9c8a3a0668a302e36f6573fbea4dead7d0a1d3eeaa299248c768e60eb41be39c",
		sbFullRows: 3,
	},
	{
		name: "ocean-64p-1k-s1", app: "ocean", cores: 64, ops: 1000, seed: 1, atomic: true,
		modes:  []record.Mode{record.ModeGranule},
		cycles: 20090, memops: 32604,
		logs: []string{
			"074facde6d0ea21d133ce5e650841120a207eb24ac64b6b7d48c598f03c6d34b",
		},
		prof: "7bc02fa5a7721670dab087dbe23c32052c0a4be7d6e668aac94050996c6f9552",
	},
	{
		name: "lu-64p-1k-nonatomic-s1", app: "lu", cores: 64, ops: 1000, seed: 1, atomic: false,
		modes:  []record.Mode{record.ModeKarma, record.ModeVolition, record.ModeGranule},
		cycles: 24595, memops: 32443,
		logs: []string{
			"60d983bf2253fbf5227165f70a51c31472443d5d5cf8c775d7c3eda5ed133af3",
			"60d983bf2253fbf5227165f70a51c31472443d5d5cf8c775d7c3eda5ed133af3",
			"f265c1544cddd02adcf0af0bd1b763830ada9df19d6b1770bde7726d100a49d9",
		},
		prof: "334a22228522250476fe60bd5331de47639131404734371040948575d446e50e",
	},
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestLargeConfigGoldens records each large configuration with the
// profiler on and compares it against its pinned values. The 64-core
// entries are where per-cycle core scheduling has the most cores to
// skip, and the radix entries are where a skipped core must still be
// charged its sb_full stall cycles.
func TestLargeConfigGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, g := range largeGoldens {
		t.Run(g.name, func(t *testing.T) {
			p, err := trace.ProfileByName(g.app)
			if err != nil {
				t.Fatal(err)
			}
			opts := DefaultOptions()
			opts.Seed = g.seed
			opts.Atomic = g.atomic
			opts.ProfileCycles = true
			rr, err := Record(p.Generate(g.cores, g.ops, g.seed), opts, g.modes...)
			if err != nil {
				t.Fatal(err)
			}
			if int64(rr.NativeCycles) != g.cycles || rr.MemOps != g.memops {
				t.Errorf("%d cycles, %d memops; want %d, %d", rr.NativeCycles, rr.MemOps, g.cycles, g.memops)
			}
			for i, mode := range g.modes {
				got := sha(relog.EncodeLog(rr.Recording(mode).Log))
				if i >= len(g.logs) || got != g.logs[i] {
					t.Errorf("%v log hash %s", mode, got)
				}
			}
			var folded strings.Builder
			if err := rr.ProfReport().WriteFolded(&folded); err != nil {
				t.Fatal(err)
			}
			if got := sha([]byte(folded.String())); got != g.prof {
				t.Errorf("prof hash %s", got)
			}
			rows := strings.Count(folded.String(), ";sb_full ")
			if rows != g.sbFullRows {
				t.Errorf("%d sb_full rows, want %d", rows, g.sbFullRows)
			}
		})
	}
}
