package core

import "sync/atomic"

// RecordInjecting is Record with before called on the machine's observer
// just before the machine runs.
var RecordInjecting = recordRun

// countNewBatches makes newBatch count the batches it allocates, until
// restore puts the allocator back; allocs reads the count.
func countNewBatches() (allocs func() int64, restore func()) {
	var n atomic.Int64
	prev := newBatch
	newBatch = func() *batch {
		n.Add(1)
		return prev()
	}
	return n.Load, func() { newBatch = prev }
}
