package rme

import (
	"runtime"
	"sync/atomic"

	"github.com/rmelib/rme/internal/wait"
)

// This file is the shared dispatcher runtime: a bounded executor that
// multiplexes every stripe's async delivery work onto WithDispatcherPool(n)
// worker goroutines, replacing the one-parked-goroutine-per-stripe model.
// A stripe that has work is a *runnable* — its inbox is non-empty and no
// worker is engaged with it — and runnables flow through a lock-free FIFO
// run queue that any idle worker can pull from. The engagement protocol
// guarantees at most one worker per stripe at a time, so everything the
// per-stripe dispatcher promised (batch swap under deliverMu, FIFO grant
// order, Grant ownership, crash absorption) carries over verbatim; only
// the goroutine that runs it is now drawn from a shared pool.
//
// # The stripe run-state word
//
// Each stripe owns one atomic word (dispatcher.runState) that makes
// "enqueue the stripe at most once" a CAS protocol rather than a
// convention:
//
//	stripeIdle        no pending work, not queued, no worker engaged
//	stripeQueued      in the run queue (or being handed to a worker)
//	stripeActive      a worker is delivering the stripe's batches
//	stripeActiveDirty a worker is delivering AND new work arrived since
//
// A submitter that pushed onto the inbox CASes idle→queued (and enqueues
// the stripe + kicks the pool) or active→activeDirty (the engaged worker
// owes a re-check); in the queued and activeDirty states someone else
// already owes the stripe a visit, so the submitter does nothing. The
// engaged worker leaves via CAS active→idle, which fails — and turns into
// a re-enqueue — exactly when work arrived during delivery. The invariant
// "a stripe is in the run queue at most once" is what lets the queue be a
// fixed ring of Shards() slots that can never overflow.
//
// # The run queue
//
// A bounded MPMC ring (Vyukov sequence-numbered slots): producers are
// submitters and releasing workers, consumers are workers. FIFO order is
// what makes the pool starvation-free — a hot stripe re-enqueues at the
// tail, behind every stripe that was already waiting. Workers hold one
// locality exception: a stripe that re-queues itself goes to the worker's
// runnext slot (the same trick as the Go scheduler's runnext) and is
// served next without a queue round-trip, except that every
// runnextSpillEvery-th dequeue spills it behind the global queue instead,
// bounding how long a hot stripe can shadow the cold ones. Workers whose
// queue is empty steal a busy peer's runnext before parking — that's the
// Steals counter in DispatcherStats.
//
// # Parking and the pool bound
//
// Workers are spawned lazily, up to the bound, by submissions that find
// no idle worker; an idle worker parks on one shared wait.Chain with a
// spin-then-park strategy (WithDispatcherSpin sizes the spin window, as
// it did for per-stripe dispatchers). The steady-state footprint of the
// async tier is therefore min(bound, high-water concurrency) goroutines,
// regardless of how many stripes have ever seen traffic — the property
// TestDispatchGoroutineBound pins.
//
// # Close
//
// Close stops intake and broadcasts the idle chain; each worker exits
// when it finds the run queue empty and the table closed, after running
// one final drainClosed pass over every stripe. Workers never join
// in-flight deliveries (a delivery blocks until the stripe's holder
// settles, and the holder may be waiting on Close's caller — see
// LockTable.Close), so Close remains non-blocking with respect to
// outstanding grants, exactly as before.

// Run-state values for dispatcher.runState; see the file comment.
const (
	stripeIdle int32 = iota
	stripeQueued
	stripeActive
	stripeActiveDirty
)

// runnextSpillEvery bounds the runnext locality exception: every this
// many dequeues a worker spills its runnext stripe behind the global
// queue instead of running it again, so a continuously hot stripe cannot
// starve the queued cold ones even on a one-worker pool.
const runnextSpillEvery = 4

// runSlot is one ring slot: a sequence-stamped stripe pointer.
type runSlot struct {
	seq atomic.Uint64
	sh  *lockShard
}

// runQueue is the bounded MPMC runnable-stripe ring. Capacity is the
// next power of two at or above the stripe count; since the run-state
// protocol admits each stripe at most once, the ring can never fill.
type runQueue struct {
	mask  uint64
	slots []runSlot
	head  atomic.Uint64 // consumer cursor
	tail  atomic.Uint64 // producer cursor
}

func (q *runQueue) init(stripes int) {
	size := uint64(2)
	for size < uint64(stripes) {
		size <<= 1
	}
	q.mask = size - 1
	q.slots = make([]runSlot, size)
	for i := range q.slots {
		q.slots[i].seq.Store(uint64(i))
	}
}

// enqueue publishes sh at the tail. The at-most-once invariant keeps
// occupancy at or below the stripe count ≤ capacity, so it never waits for
// room — only, briefly, for a consumer that has claimed the slot's previous
// lap (won the head CAS) but not yet stored the slot's sequence.
func (q *runQueue) enqueue(sh *lockShard) {
	for {
		pos := q.tail.Load()
		slot := &q.slots[pos&q.mask]
		seq := slot.seq.Load()
		if seq == pos {
			if q.tail.CompareAndSwap(pos, pos+1) {
				slot.sh = sh
				slot.seq.Store(pos + 1)
				return
			}
		} else if seq < pos {
			// The slot still holds its previous lap, pos-size. If head has
			// moved past that lap, a consumer claimed it and is between its
			// head CAS and its seq store: the ring has room, so wait for
			// the store. Otherwise the ring really is full, which means a
			// stripe was enqueued twice — a run-state protocol violation,
			// never load. Fail loudly.
			if q.head.Load()+q.mask+1 <= pos {
				panic("rme: dispatcher run queue overflow")
			}
			runtime.Gosched()
		}
		// seq > pos: another producer moved tail between loads; retry.
	}
}

// dequeue pops the oldest runnable stripe, or returns nil if the queue
// is (momentarily) empty.
func (q *runQueue) dequeue() *lockShard {
	for {
		pos := q.head.Load()
		slot := &q.slots[pos&q.mask]
		seq := slot.seq.Load()
		if seq == pos+1 {
			if q.head.CompareAndSwap(pos, pos+1) {
				sh := slot.sh
				slot.sh = nil
				slot.seq.Store(pos + q.mask + 1)
				return sh
			}
		} else if seq <= pos {
			return nil
		}
		// seq > pos+1: a consumer lapped us between loads; retry.
	}
}

// depth reports the racy occupancy — the RunQueueDepth gauge.
func (q *runQueue) depth() int {
	d := int64(q.tail.Load()) - int64(q.head.Load())
	if d < 0 {
		d = 0
	}
	return int(d)
}

// dispWorker is one pool slot's private state, padded so neighboring
// workers' runnext words do not false-share.
type dispWorker struct {
	// runnext holds a stripe this worker re-queued for itself (the
	// locality exception). Written by the owner (CAS from nil), consumed
	// by the owner or — when the global queue runs dry — stolen by a peer
	// via Swap.
	runnext atomic.Pointer[lockShard]
	// tick counts the owner's dequeues, driving the periodic spill.
	tick uint64
	_    [cacheLineSize - 16]byte
}

// executor is the table's shared dispatcher runtime. Zero value is not
// usable; init is called from newTableArena.
type executor struct {
	t     *LockTable
	bound int32 // pool size: the maximum number of workers
	runq  runQueue
	// idle is where surplus workers park; idleCond is bound once so idle
	// episodes do not allocate, and parkStrat is spin-then-park with the
	// WithDispatcherSpin budget — an idle pool must cost parked
	// goroutines, never a yield loop, whatever the table's worker-side
	// wait strategy is.
	idle      wait.Chain
	idleCond  func() bool
	parkStrat wait.Strategy

	workers []dispWorker
	spawned atomic.Int32 // workers ever started, ≤ bound
	live    atomic.Int32 // workers started and not yet exited
	engaged atomic.Int32 // workers currently delivering a stripe's batch
	batches atomic.Uint64
	steals  atomic.Uint64
}

func (e *executor) init(t *LockTable, bound, spin int) {
	e.t = t
	e.bound = int32(bound)
	e.runq.init(len(t.shards))
	e.workers = make([]dispWorker, bound)
	e.parkStrat = wait.SpinThenPark(spin)
	e.idleCond = func() bool { return e.runq.depth() > 0 || t.closed.Load() }
}

// schedule marks sh runnable after an inbox push: idle stripes are
// enqueued (and the pool kicked), engaged stripes are flagged dirty so
// their worker re-checks the inbox before disengaging, and queued or
// already-dirty stripes need nothing — a visit is owed either way.
func (e *executor) schedule(sh *lockShard) {
	d := &sh.disp
	for {
		switch d.runState.Load() {
		case stripeIdle:
			if d.runState.CompareAndSwap(stripeIdle, stripeQueued) {
				e.runq.enqueue(sh)
				e.kick()
				return
			}
		case stripeActive:
			if d.runState.CompareAndSwap(stripeActive, stripeActiveDirty) {
				return
			}
		default: // stripeQueued, stripeActiveDirty
			return
		}
	}
}

// kick makes sure a worker will observe the freshly enqueued stripe:
// wake a parked worker if there is one, else spawn a new worker while
// the pool is under its bound. When every worker is spawned and busy the
// trailing Wake is still issued — it is one atomic load when nobody is
// parked, and it covers the race with a worker that is between its empty
// dequeue and its park (the chain's no-lost-wake contract does the rest:
// the worker re-checks the queue after registering).
func (e *executor) kick() {
	for e.idle.Waiters() == 0 {
		n := e.spawned.Load()
		if n >= e.bound {
			break
		}
		if e.spawned.CompareAndSwap(n, n+1) {
			e.live.Add(1)
			go e.worker(int(n))
			return
		}
	}
	e.idle.Wake()
}

// spawnAll starts the full pool eagerly — WithAsyncPrewarm's executor
// half, so even a table's very first submission finds the pool warm and
// the submit path never pays a goroutine spawn.
func (e *executor) spawnAll() {
	for {
		n := e.spawned.Load()
		if n >= e.bound {
			return
		}
		if e.spawned.CompareAndSwap(n, n+1) {
			e.live.Add(1)
			go e.worker(int(n))
		}
	}
}

// worker is one pool goroutine: pull runnable stripes and deliver their
// batches until the table closes and the queue drains, parking on the
// idle chain when there is globally nothing to run.
func (e *executor) worker(id int) {
	defer e.live.Add(-1)
	w := &e.workers[id]
	t := e.t
	for {
		sh := e.next(w)
		if sh == nil {
			if t.closed.Load() {
				// Final drain before exiting (the pooled form of the old
				// dispatcher's last pass): a submission that passed its
				// closed check concurrently with Close may have pushed
				// after this worker's last look at its stripe, and no
				// worker may come back for it once the pool winds down.
				// Pushes that land after this pass are covered the other
				// way — their submitters' post-push re-check observes
				// closed and spawns a transient drainer (see submit).
				e.finalDrain()
				return
			}
			e.idle.Wait(e.parkStrat, e.idleCond, nil)
			continue
		}
		e.runStripe(w, sh)
	}
}

// next picks this worker's next stripe: its runnext slot (with the
// periodic fairness spill), then the global queue, then a steal from a
// busy peer's runnext. A nil return means the pool is globally idle.
func (e *executor) next(w *dispWorker) *lockShard {
	w.tick++
	if rn := w.runnext.Swap(nil); rn != nil {
		if w.tick%runnextSpillEvery == 0 {
			// Fairness tick: push the hot stripe behind the queued cold
			// ones, and serve the queue's head instead if it has one.
			if sh := e.runq.dequeue(); sh != nil {
				e.runq.enqueue(rn)
				e.kick()
				return sh
			}
		}
		return rn
	}
	if sh := e.runq.dequeue(); sh != nil {
		return sh
	}
	for i := range e.workers {
		if p := &e.workers[i]; p != w {
			if sh := p.runnext.Swap(nil); sh != nil {
				e.steals.Add(1)
				return sh
			}
		}
	}
	return nil
}

// runStripe engages sh — this worker becomes the stripe's dispatcher for
// one batch — and then releases it: back to idle if the inbox stayed
// empty, re-queued if work arrived while engaged. Delivering one batch
// per engagement (rather than looping until the inbox stays empty) is
// the cross-stripe fairness choice: a stripe with a continuous push
// stream goes back through runnext/the queue between batches instead of
// holding its worker forever.
func (e *executor) runStripe(w *dispWorker, sh *lockShard) {
	d := &sh.disp
	// Sole-owner store: only the worker that dequeued the stripe leaves
	// stripeQueued, and submitters CAS only from idle or active.
	d.runState.Store(stripeActive)
	e.engaged.Add(1)
	e.t.deliverBatch(sh)
	e.batches.Add(1)
	e.engaged.Add(-1)
	for {
		if d.inbox.Load() != nil || d.runState.Load() == stripeActiveDirty {
			// Work arrived while engaged (or is mid-push: the dirty flag
			// may lag the inbox CAS, so check both). Hand the stripe back
			// through the queue; the overwrite of a racing dirty-CAS is
			// benign — we are about to requeue, which is what dirty asks.
			d.runState.Store(stripeQueued)
			e.requeue(w, sh)
			return
		}
		if d.runState.CompareAndSwap(stripeActive, stripeIdle) {
			return
		}
		// CAS failed: a submitter flipped active→activeDirty between our
		// inbox check and the CAS; loop and requeue.
	}
}

// requeue hands a still-runnable stripe back: into this worker's runnext
// slot for locality, or the global queue (plus a kick, another worker
// may be parked) when runnext is taken.
func (e *executor) requeue(w *dispWorker, sh *lockShard) {
	if w.runnext.CompareAndSwap(nil, sh) {
		return
	}
	e.runq.enqueue(sh)
	e.kick()
}

// finalDrain is an exiting worker's last duty: one drainClosed pass over
// every stripe, so requests that were pushed concurrently with Close are
// delivered even if their stripe never made it back through the queue.
// Concurrent finalDrains (and transient submit-side drainers) are safe:
// the inbox Swap hands each request to exactly one of them.
func (e *executor) finalDrain() {
	t := e.t
	for i := range t.shards {
		t.drainClosed(&t.shards[i])
	}
}

// stats snapshots the executor's observability block.
func (e *executor) stats() DispatcherStats {
	return DispatcherStats{
		PoolSize:      int(e.bound),
		Workers:       int(e.live.Load()),
		Engaged:       int(e.engaged.Load()),
		RunQueueDepth: e.runq.depth(),
		Batches:       e.batches.Load(),
		Steals:        e.steals.Load(),
	}
}

// DispatcherStats is the shared dispatcher runtime's observability
// snapshot, reported in TableStats.Dispatcher.
type DispatcherStats struct {
	// PoolSize is the configured worker bound (WithDispatcherPool).
	PoolSize int
	// Workers is how many pool goroutines are currently live — spawned
	// (lazily, by traffic) and not yet wound down by Close. Never exceeds
	// PoolSize; this is the async tier's whole goroutine footprint,
	// regardless of the stripe count.
	Workers int
	// Engaged is how many workers are delivering a stripe's batch right
	// now (the rest are parked or between stripes).
	Engaged int
	// RunQueueDepth is how many runnable stripes are waiting in the
	// global run queue — the pool's backlog signal: persistently nonzero
	// means the bound is below the workload's stripe-level parallelism.
	RunQueueDepth int
	// Batches counts delivered inbox batches, lifetime.
	Batches uint64
	// Steals counts runnext steals — a worker finding the global queue
	// empty and taking a busy peer's locality slot instead, lifetime.
	Steals uint64
}
