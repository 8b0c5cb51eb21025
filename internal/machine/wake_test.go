package machine

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"pacifier/internal/sim"
	"pacifier/internal/trace"
)

// runAwake is Machine.Run with sleeping undone: it wakes every core
// before every cycle, so every core steps every cycle.
func runAwake(t *testing.T, m *Machine, limit sim.Cycle) {
	t.Helper()
	for !m.Done() {
		if m.Eng.Now() >= limit {
			t.Fatalf("did not finish in %d cycles", limit)
		}
		for i := range m.Cores {
			m.Eng.Wake(i)
		}
		m.Eng.Tick()
	}
}

// TestSleepingCoresMatchAlwaysAwake is the exactness oracle for core
// sleeping: a machine whose cores sleep through cycles where they cannot
// act must finish on the same cycle, with the same execution records
// and the same stats (profiler counters included) as one whose cores
// step every cycle.
func TestSleepingCoresMatchAlwaysAwake(t *testing.T) {
	type config struct {
		app     string
		ops     int
		atomic  bool
		profile bool
		sbFull  bool // must stall retire on a full store buffer
	}
	var configs []config
	for i, p := range trace.Profiles() {
		configs = append(configs,
			config{p.Name, 400, true, i%2 == 0, false},
			config{p.Name, 400, false, i%2 == 1, false})
	}
	// Radix at 1000 ops fills store buffers, so sleeping cores owe
	// the profiler sb_full stall cycles.
	configs = append(configs, config{"radix", 1000, true, true, true})

	const cores, seed, limit = 16, 4, 50_000_000
	for _, c := range configs {
		name := fmt.Sprintf("%s-%d-atomic=%v-profile=%v", c.app, c.ops, c.atomic, c.profile)
		t.Run(name, func(t *testing.T) {
			p, err := trace.ProfileByName(c.app)
			if err != nil {
				t.Fatal(err)
			}
			w := p.Generate(cores, c.ops, seed)
			build := func() *Machine {
				cfg := DefaultConfig(cores)
				cfg.Seed = seed
				cfg.Mem.Atomic = c.atomic
				cfg.Profile = c.profile
				m, err := New(cfg, w, nil)
				if err != nil {
					t.Fatal(err)
				}
				return m
			}
			sleeping, awake := build(), build()
			if err := sleeping.Run(limit); err != nil {
				t.Fatal(err)
			}
			runAwake(t, awake, limit)

			if sleeping.Cycles() != awake.Cycles() {
				t.Fatalf("cycles %d, always awake %d", sleeping.Cycles(), awake.Cycles())
			}
			for pid := range sleeping.Cores {
				if !reflect.DeepEqual(sleeping.Records(pid), awake.Records(pid)) {
					t.Fatalf("core %d execution records differ", pid)
				}
			}
			a, err := sleeping.Stats.Snapshot().Encode()
			if err != nil {
				t.Fatal(err)
			}
			b, err := awake.Stats.Snapshot().Encode()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(a, b) {
				t.Fatalf("stats differ:\n%s\nalways awake:\n%s", a, b)
			}
			if c.sbFull {
				var stalled int64
				for _, n := range sleeping.Stats.Names() {
					if strings.HasSuffix(n, ".sb_full") {
						stalled += sleeping.Stats.Get(n)
					}
				}
				if stalled == 0 {
					t.Fatal("no sb_full stall cycles: the config no longer exercises SB-full sleeps")
				}
			}
		})
	}
}
