package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// forEachTick runs a sleep/wake scenario on a serial engine (Tick) and
// on a one-shard group's engine (tickShard), which must agree.
func forEachTick(t *testing.T, f func(t *testing.T, e *Engine, tick func())) {
	t.Run("serial", func(t *testing.T) {
		e := NewEngine()
		f(t, e, e.Tick)
	})
	t.Run("shard", func(t *testing.T) {
		e := NewShardGroup(1, 8).Engine(0)
		f(t, e, e.tickShard)
	})
}

func TestRegisterReturnsStepperIndex(t *testing.T) {
	e := NewEngine()
	for want := 0; want < 3; want++ {
		if got := e.Register(stepFunc(func(Cycle) {})); got != want {
			t.Fatalf("Register returned %d, want %d", got, want)
		}
	}
	if got := e.RegisterPID(stepFunc(func(Cycle) {}), 7); got != 3 {
		t.Fatalf("RegisterPID returned %d, want 3", got)
	}
}

func TestSleepingStepperSkippedUntilWakeCycle(t *testing.T) {
	forEachTick(t, func(t *testing.T, e *Engine, tick func()) {
		var got []Cycle
		var id int
		id = e.Register(stepFunc(func(now Cycle) {
			got = append(got, now)
			if now == 2 {
				e.Sleep(id, 7)
			}
		}))
		for e.Now() < 10 {
			tick()
		}
		if want := []Cycle{0, 1, 2, 7, 8, 9}; !reflect.DeepEqual(got, want) {
			t.Fatalf("stepped at %v, want %v", got, want)
		}
	})
}

func TestWakeFromEventStepsNextCycle(t *testing.T) {
	forEachTick(t, func(t *testing.T, e *Engine, tick func()) {
		var got []Cycle
		var id int
		id = e.Register(stepFunc(func(now Cycle) {
			got = append(got, now)
			e.Sleep(id, Never)
		}))
		e.After(5, func() { e.Wake(id) })
		for e.Now() < 10 {
			tick()
		}
		if want := []Cycle{0, 6}; !reflect.DeepEqual(got, want) {
			t.Fatalf("stepped at %v, want %v", got, want)
		}
	})
}

func TestWakeFromStepperFollowsRegistrationOrder(t *testing.T) {
	// Stepper 1 wakes 0 and 2 during cycle 4's stepper phase: 2 has not
	// had its turn yet and steps at 4; 0 already had it and steps at 5.
	forEachTick(t, func(t *testing.T, e *Engine, tick func()) {
		var got []string
		var low, high int
		low = e.Register(stepFunc(func(now Cycle) {
			got = append(got, fmt.Sprintf("low@%d", now))
			e.Sleep(low, Never)
		}))
		e.Register(stepFunc(func(now Cycle) {
			if now == 4 {
				e.Wake(low)
				e.Wake(high)
			}
		}))
		high = e.Register(stepFunc(func(now Cycle) {
			got = append(got, fmt.Sprintf("high@%d", now))
			e.Sleep(high, Never)
		}))
		for e.Now() < 8 {
			tick()
		}
		if want := []string{"low@0", "high@0", "high@4", "low@5"}; !reflect.DeepEqual(got, want) {
			t.Fatalf("stepped %v, want %v", got, want)
		}
	})
}

func TestWakeBeforeWakeCycleStepsAtOnce(t *testing.T) {
	forEachTick(t, func(t *testing.T, e *Engine, tick func()) {
		var got []Cycle
		var id int
		id = e.Register(stepFunc(func(now Cycle) {
			got = append(got, now)
			if now == 0 {
				e.Sleep(id, 100)
			}
		}))
		e.After(3, func() { e.Wake(id) })
		for e.Now() < 6 {
			tick()
		}
		// Between ticks, too: the next tick steps it.
		e.Sleep(id, 100)
		e.Wake(id)
		tick()
		if want := []Cycle{0, 4, 5, 6}; !reflect.DeepEqual(got, want) {
			t.Fatalf("stepped at %v, want %v", got, want)
		}
	})
}

func TestWakeNeverDelaysAnAwakeStepper(t *testing.T) {
	forEachTick(t, func(t *testing.T, e *Engine, tick func()) {
		var got []Cycle
		var id int
		id = e.Register(stepFunc(func(now Cycle) {
			got = append(got, now)
			e.Wake(id)
		}))
		e.After(1, func() { e.Wake(id) })
		for e.Now() < 4 {
			tick()
		}
		if want := []Cycle{0, 1, 2, 3}; !reflect.DeepEqual(got, want) {
			t.Fatalf("stepped at %v, want %v", got, want)
		}
	})
}
