package main

import "sync/atomic"

// spanName names the public call a span wraps.
type spanName uint8

const (
	spOp spanName = iota // one whole passage; the parent of the rest
	spLock
	spUnlock
	spLockContext
	spTryLock
	spLockBatch
	spBatchUnlock
	spReclaim
	numSpanNames
)

// spanLabels are the spans' names as the run metadata reports them.
var spanLabels = [numSpanNames]string{"op", "Lock", "Unlock", "LockContext", "TryLock", "LockBatch",
	"Batch.Unlock", "Reclaim"}

// span is one timed call: name, start, end, the index of its parent span
// in the same tracer (-1 for a root) and the id of the passage it serves.
type span struct {
	start, end int64
	op         uint64
	parent     int32
	name       spanName
}

// traceCap bounds the spans a traced window keeps, split evenly over the
// clients (32 bytes each); the window ends early once any client's share
// fills.
const traceCap = 1 << 21

// tracer keeps one client's spans in memory. A nil tracer records
// nothing, and neither do children of a root that was not recorded.
type tracer struct {
	spans []span
	full  *atomic.Bool
}

// open starts a root span and returns its index, or -1 when not recording.
func (t *tracer) open(op uint64, start int64) int32 {
	if t == nil {
		return -1
	}
	if len(t.spans)+8 > cap(t.spans) {
		t.full.Store(true)
		return -1
	}
	t.spans = append(t.spans, span{start: start, op: op, parent: -1, name: spOp})
	return int32(len(t.spans) - 1)
}

func (t *tracer) child(parent int32, name spanName, start, end int64) {
	if t == nil || parent < 0 || len(t.spans) == cap(t.spans) {
		return
	}
	t.spans = append(t.spans, span{start: start, end: end, op: t.spans[parent].op, parent: parent, name: name})
}

func (t *tracer) close(root int32, end int64) {
	if t != nil && root >= 0 {
		t.spans[root].end = end
	}
}

// spanHists folds every client's spans into one duration histogram per
// span name.
func spanHists(clients []*client) [numSpanNames]*hist {
	var hs [numSpanNames]*hist
	for i := range hs {
		hs[i] = new(hist)
	}
	for _, c := range clients {
		if c.tr == nil {
			continue
		}
		for _, sp := range c.tr.spans {
			hs[sp.name].add(sp.end - sp.start)
		}
	}
	return hs
}
