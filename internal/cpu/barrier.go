package cpu

// BarrierHub coordinates trace-level barriers across the cores of one
// machine. A core arrives at barrier id once its window and store buffer
// have drained; when every core has arrived, all waiters resume on the
// same cycle. Barriers carry no memory traffic (see DESIGN.md): the data
// dependences that cross a barrier are captured by the coherence
// protocol when the data is actually read.
type BarrierHub struct {
	n       int
	arrived map[int]int
	waiters map[int][]func()
}

// NewBarrierHub creates a hub for n cores.
func NewBarrierHub(n int) *BarrierHub {
	return &BarrierHub{
		n:       n,
		arrived: make(map[int]int),
		waiters: make(map[int][]func()),
	}
}

// Arrive registers a core at barrier id; resume runs when all n cores
// have arrived (synchronously for the last arriver).
func (b *BarrierHub) Arrive(id int, resume func()) {
	b.arrived[id]++
	b.waiters[id] = append(b.waiters[id], resume)
	if b.arrived[id] == b.n {
		ws := b.waiters[id]
		delete(b.waiters, id)
		delete(b.arrived, id)
		for _, w := range ws {
			w()
		}
	}
}

// Waiting reports how many cores are parked at barrier id.
func (b *BarrierHub) Waiting(id int) int { return b.arrived[id] }
