package replay

import (
	"sync/atomic"

	"pacifier/internal/trace"
)

// CountIndexBuilds makes IndexOps count the indexes it builds, until
// restore undoes that; builds reads the count.
func CountIndexBuilds() (builds func() int64, restore func()) {
	var n atomic.Int64
	prev := buildIndex
	buildIndex = func(w *trace.Workload) (*OpIndex, error) {
		n.Add(1)
		return prev(w)
	}
	return n.Load, func() { buildIndex = prev }
}
