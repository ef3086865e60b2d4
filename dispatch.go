package rme

import "sync/atomic"

// This file is the shared dispatcher runtime: a bounded executor that
// multiplexes every stripe's async delivery work onto WithDispatcherPool(n)
// worker goroutines, replacing the one-parked-goroutine-per-stripe model.
// A stripe that has work is a *runnable*, and runnables flow through one
// buffered Go channel that every worker receives from. The scheduled bit
// below guarantees at most one engaged worker per stripe at a time, so
// everything the per-stripe dispatcher promised (one deliverer per
// stripe, FIFO grant order, Grant ownership, crash absorption) carries
// over verbatim; only the goroutine that runs it is now drawn from a
// shared pool.
//
// # The scheduled bit
//
// Each stripe owns one atomic bit (dispatcher.scheduled), set from the
// moment the stripe is enqueued until the worker that received it has
// delivered one batch. Whoever flips it false→true enqueues the stripe, so
// "a stripe is in the run queue at most once" is a CAS protocol rather
// than a convention: a submitter that pushed onto the inbox CASes the bit
// and enqueues on success, and does nothing on failure. The engaged
// worker, after its batch, clears the bit, re-loads the inbox, and if it
// is non-empty CASes the bit back and re-enqueues the stripe itself.
//
// No push is lost. A submitter's CAS fails only if the bit was set when it
// looked, and then either the bit was set before the worker cleared it —
// so the push precedes the clear and the worker's inbox load, which
// follows the clear, sees it — or someone set it after the clear, and that
// someone enqueued the stripe again. The at-most-once invariant caps the
// channel's occupancy at Shards(), its capacity, so a send never blocks.
// The channel's FIFO order is what makes the pool starvation-free: a hot
// stripe re-enqueues at the tail, behind every stripe that was already
// waiting.
//
// # The pool bound and the claim rule
//
// Workers are spawned lazily, up to the bound, and an idle worker simply
// blocks in its receive. Every enqueue commits one worker to the stripe
// it sends: it claims an idle worker by decrementing the idle count
// itself, or spawns one while the pool is under its bound. A worker counts
// itself idle again only after it finishes a stripe. So below the bound
// every queued stripe has a worker of its own: a submit right behind one
// that readied the last idle worker sees the count at zero and spawns,
// even if that worker has not run yet. The steady-state footprint of the
// async tier is min(bound, high-water concurrency) goroutines, regardless
// of how many stripes have ever seen traffic — the property
// TestDispatchGoroutineBound pins.
//
// # Close
//
// Close stops intake, waits until every submission that saw the table
// open has scheduled its stripe, and closes the stop channel (see
// LockTable.Close). Every accepted request then sits on an inbox whose
// stripe is queued or engaged, and each worker exits once it finds the
// run queue empty — after a worker's requeue, that worker is itself alive
// to receive the stripe again. Close never joins in-flight deliveries (a
// delivery blocks until the stripe's holder settles, and the holder may be
// waiting on Close's caller), so it does not block on outstanding grants.

// executor is the table's shared dispatcher runtime. Zero value is not
// usable; init is called from newTableArena.
type executor struct {
	t     *LockTable
	bound int32 // pool size: the maximum number of workers
	// runq carries runnable stripes. Its capacity is Shards(): the
	// scheduled bit admits each stripe at most once, so a send never
	// blocks.
	runq chan *lockShard
	stop chan struct{} // closed by LockTable.Close

	spawned atomic.Int32 // workers ever started, ≤ bound
	idle    atomic.Int32 // workers an enqueue may claim (see enqueue)
	live    atomic.Int32 // workers started and not yet exited
	engaged atomic.Int32 // workers currently delivering a stripe's batch
	batches atomic.Uint64
}

func (e *executor) init(t *LockTable, bound int) {
	e.t = t
	e.bound = int32(bound)
	e.runq = make(chan *lockShard, len(t.shards))
	e.stop = make(chan struct{})
}

// schedule marks sh runnable after an inbox push: the submitter that sets
// the stripe's scheduled bit enqueues it; if the bit was already set, a
// visit is owed anyway (see the file comment).
func (e *executor) schedule(sh *lockShard) {
	if sh.disp.scheduled.CompareAndSwap(false, true) {
		e.enqueue(sh)
	}
}

// enqueue sends sh, whose scheduled bit the caller just set, to the run
// queue, committing a worker to it first: claim an idle one, else spawn
// one while the pool is under its bound. At the bound with no idle worker
// the stripe waits for the next worker to finish its current one.
func (e *executor) enqueue(sh *lockShard) {
	for {
		if n := e.idle.Load(); n > 0 {
			if e.idle.CompareAndSwap(n, n-1) {
				break
			}
			continue
		}
		n := e.spawned.Load()
		if n >= e.bound {
			break
		}
		if e.spawned.CompareAndSwap(n, n+1) {
			e.live.Add(1)
			go e.worker()
			break
		}
	}
	e.runq <- sh
}

// spawnAll starts the full pool eagerly — WithAsyncPrewarm's executor
// half, so even a table's very first submission finds the pool warm and
// the submit path never pays a goroutine spawn. Each eager worker starts
// out idle, ready to be claimed.
func (e *executor) spawnAll() {
	for {
		n := e.spawned.Load()
		if n >= e.bound {
			return
		}
		if e.spawned.CompareAndSwap(n, n+1) {
			e.live.Add(1)
			e.idle.Add(1)
			go e.worker()
		}
	}
}

// worker is one pool goroutine: receive runnable stripes and deliver
// their batches until the table closes and the run queue is empty.
func (e *executor) worker() {
	defer e.live.Add(-1)
	for {
		var sh *lockShard
		select {
		case sh = <-e.runq:
		case <-e.stop:
			// Closed, but a worker still leaves only once the run queue
			// is empty: a stripe queued behind one a peer is blocked on
			// must still get a worker, or its grant is stranded.
			select {
			case sh = <-e.runq:
			default:
				return
			}
		}
		requeue := e.runStripe(sh)
		// Idle before the requeue, so the requeue can claim this worker
		// instead of spawning another.
		e.idle.Add(1)
		if requeue {
			e.enqueue(sh)
		}
	}
}

// runStripe engages sh — this worker becomes the stripe's dispatcher for
// one batch — and then releases it by clearing the scheduled bit,
// reporting true if work arrived while engaged and this worker set the
// bit again (so it owes the requeue). Delivering one batch per engagement
// (rather than looping until the inbox stays empty) is the cross-stripe
// fairness choice: a stripe with a continuous push stream goes back
// through the run queue between batches instead of holding its worker
// forever.
func (e *executor) runStripe(sh *lockShard) (requeue bool) {
	d := &sh.disp
	e.engaged.Add(1)
	e.t.deliverBatch(sh)
	e.batches.Add(1)
	e.engaged.Add(-1)
	d.scheduled.Store(false)
	// The inbox load must follow the clear: a push whose schedule saw the
	// bit still set is visible here (see the file comment).
	return d.inbox.Load() != nil && d.scheduled.CompareAndSwap(false, true)
}

// stats snapshots the executor's observability block.
func (e *executor) stats() DispatcherStats {
	return DispatcherStats{
		PoolSize:      int(e.bound),
		Workers:       int(e.live.Load()),
		Engaged:       int(e.engaged.Load()),
		RunQueueDepth: len(e.runq),
		Batches:       e.batches.Load(),
	}
}

// DispatcherStats is the shared dispatcher runtime's observability
// snapshot, reported in TableStats.Dispatcher.
type DispatcherStats struct {
	// PoolSize is the configured worker bound (WithDispatcherPool).
	PoolSize int `json:"pool_size"`
	// Workers is how many pool goroutines are currently live — spawned
	// (lazily, by traffic) and not yet wound down by Close. Never exceeds
	// PoolSize; this is the async tier's whole goroutine footprint,
	// regardless of the stripe count.
	Workers int `json:"workers"`
	// Engaged is how many workers are delivering a stripe's batch right
	// now (the rest are idle or between stripes).
	Engaged int `json:"engaged"`
	// RunQueueDepth is how many runnable stripes are waiting in the
	// run queue — the pool's backlog signal: persistently nonzero means
	// the bound is below the workload's stripe-level parallelism.
	RunQueueDepth int `json:"run_queue_depth"`
	// Batches counts delivered inbox batches, lifetime.
	Batches uint64 `json:"batches"`
	// Steals always reads 0: every worker receives from one shared run
	// queue, so none ever takes work from another. The field stays for
	// existing readers (the JSON encoding and the bench ladder's
	// steals_per_acquire rung).
	Steals uint64 `json:"steals"`
}
