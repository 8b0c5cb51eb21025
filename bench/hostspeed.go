package main

import "time"

// The benchmark runs on shared hosts, where neighbours' load changes the
// speed of every program on a core by 10–30% over seconds to minutes. To
// keep that drift out of the end-to-end times, the benchmark runs a fixed
// reference kernel between set-ups and between iterations, and scales
// each one's times by how fast the kernel ran just before and just after
// it, relative to its nominal speed. The kernel is the benchmark's own code,
// so no change to the repository changes it, and it does not allocate,
// so it moves no allocation or GC number.

const (
	// calNominal is the time one kernel unit takes on the host the bounds
	// were set on (Intel Xeon, 2 vCPUs, quiet). On a host running at that
	// speed a calibrated time equals the wall time.
	calNominal = time.Millisecond
	// calShare is the kernel's time after a set-up or iteration as a
	// share of the set-up's or iteration's.
	calShare   = 0.05
	calMapKeys = 4096
)

// The kernel's working sets, larger than the caches. As pointer-free
// globals they are outside the Go heap, so they change neither the heap
// size nor when the collector runs.
var (
	calTable [1 << 20]uint64
	calFrom  [4 << 20]byte
	calTo    [4 << 20]byte
)

// hostClock runs the reference kernel. Each unit is mostly map updates,
// with a block copy and dependent random reads over a table larger than
// the caches: the mix whose time tracked the wall times of a harness job,
// a log load and a 64-core recording most closely, under both light and
// heavy load from the host's neighbours.
type hostClock struct {
	m    map[uint64]uint64
	sink uint64
	last float64 // slowness measured after the previous piece of work
}

func newHostClock() *hostClock {
	for i := range calTable {
		calTable[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	for i := range calFrom {
		calFrom[i] = byte(i)
	}
	c := &hostClock{m: make(map[uint64]uint64, calMapKeys)}
	c.unit() // grow the map once, so later units do not allocate
	return c
}

func (c *hostClock) unit() {
	x := c.sink | 1
	for i := 0; i < 1000; i++ {
		x = calTable[(x*0x9e3779b97f4a7c15)>>44] + x + 1
	}
	for k := uint64(0); k < 8; k++ {
		clear(c.m)
		for i := uint64(0); i < calMapKeys; i++ {
			c.m[(x+k+i)*2654435761] += i
		}
	}
	copy(calTo[:], calFrom[:])
	c.sink = x + uint64(len(c.m)) + uint64(calTo[x%uint64(len(calTo))])
}

// begin measures the host's slowness before a series of timed pieces of
// work.
func (c *hostClock) begin() { c.last = c.slowness(200 * time.Millisecond) }

// after runs the kernel after a piece of work that took d and returns
// the slowness to scale it by: the mean of the measurements just before
// and just after it.
func (c *hostClock) after(d time.Duration) float64 {
	next := c.slowness(d)
	s := (c.last + next) / 2
	c.last = next
	return s
}

// scaled is d at nominal host speed.
func scaled(d time.Duration, slowness float64) time.Duration {
	return time.Duration(float64(d) / slowness)
}

// slowness runs whole units for at least calShare of d and returns the
// time per unit over calNominal: above 1 on a host slower than nominal.
func (c *hostClock) slowness(d time.Duration) float64 {
	start := time.Now()
	n := 0
	for n == 0 || time.Since(start) < time.Duration(calShare*float64(d)) {
		c.unit()
		n++
	}
	return float64(time.Since(start)) / float64(n) / float64(calNominal)
}
