package sim

import (
	"fmt"
	"reflect"
	"testing"
)

// onEngine runs a sleep/wake scenario on a fresh engine, as subtest
// "serial".
func onEngine(t *testing.T, f func(t *testing.T, e *Engine)) {
	t.Run("serial", func(t *testing.T) { f(t, NewEngine()) })
}

func TestRegisterReturnsStepperIndex(t *testing.T) {
	e := NewEngine()
	for want := 0; want < 3; want++ {
		if got := e.Register(stepFunc(func(Cycle) {})); got != want {
			t.Fatalf("Register returned %d, want %d", got, want)
		}
	}
}

func TestSleepingStepperSkippedUntilWakeCycle(t *testing.T) {
	onEngine(t, func(t *testing.T, e *Engine) {
		var got []Cycle
		var id int
		id = e.Register(stepFunc(func(now Cycle) {
			got = append(got, now)
			if now == 2 {
				e.Sleep(id, 7)
			}
		}))
		for e.Now() < 10 {
			e.Tick()
		}
		if want := []Cycle{0, 1, 2, 7, 8, 9}; !reflect.DeepEqual(got, want) {
			t.Fatalf("stepped at %v, want %v", got, want)
		}
	})
}

func TestWakeFromEventStepsNextCycle(t *testing.T) {
	onEngine(t, func(t *testing.T, e *Engine) {
		var got []Cycle
		var id int
		id = e.Register(stepFunc(func(now Cycle) {
			got = append(got, now)
			e.Sleep(id, Never)
		}))
		e.After(5, func() { e.Wake(id) })
		for e.Now() < 10 {
			e.Tick()
		}
		if want := []Cycle{0, 6}; !reflect.DeepEqual(got, want) {
			t.Fatalf("stepped at %v, want %v", got, want)
		}
	})
}

func TestWakeFromStepperFollowsRegistrationOrder(t *testing.T) {
	// Stepper 1 wakes 0 and 2 during cycle 4's stepper phase: 2 has not
	// had its turn yet and steps at 4; 0 already had it and steps at 5.
	onEngine(t, func(t *testing.T, e *Engine) {
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
			e.Tick()
		}
		if want := []string{"low@0", "high@0", "high@4", "low@5"}; !reflect.DeepEqual(got, want) {
			t.Fatalf("stepped %v, want %v", got, want)
		}
	})
}

func TestWakeBeforeWakeCycleStepsAtOnce(t *testing.T) {
	onEngine(t, func(t *testing.T, e *Engine) {
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
			e.Tick()
		}
		// Between ticks, too: the next tick steps it.
		e.Sleep(id, 100)
		e.Wake(id)
		e.Tick()
		if want := []Cycle{0, 4, 5, 6}; !reflect.DeepEqual(got, want) {
			t.Fatalf("stepped at %v, want %v", got, want)
		}
	})
}

func TestWakeNeverDelaysAnAwakeStepper(t *testing.T) {
	onEngine(t, func(t *testing.T, e *Engine) {
		var got []Cycle
		var id int
		id = e.Register(stepFunc(func(now Cycle) {
			got = append(got, now)
			e.Wake(id)
		}))
		e.After(1, func() { e.Wake(id) })
		for e.Now() < 4 {
			e.Tick()
		}
		if want := []Cycle{0, 1, 2, 3}; !reflect.DeepEqual(got, want) {
			t.Fatalf("stepped at %v, want %v", got, want)
		}
	})
}
