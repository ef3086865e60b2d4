package rme

import (
	"context"
	"sync"
	"sync/atomic"
)

// This file is the asynchronous half of the keyed lock service: completion
// -based acquisition (LockAsync / LockAsyncFunc) through a shared
// dispatcher runtime, so callers enqueue and move on instead of parking a
// goroutine for the whole queue wait.
//
// # Why a dispatcher
//
// The synchronous Lock burns one blocked goroutine per waiting key — fine
// for tens of waiters, hostile at service scale where a hot stripe can
// have thousands of requests in flight. The dispatcher model inverts
// that: each stripe has (at most) one goroutine engaged with the lock
// protocol at a time, working through a lock-free inbox of requests in
// FIFO order and completing each by handing its Grant to the requester.
// The thousands of in-flight requests cost one inbox node each, not one
// goroutine stack each; the stripe's queue wait is paid by its dispatcher
// alone, parked on the same wait engine as every other wait in the stack.
//
// Who that dispatcher *is* changed with the shared runtime (dispatch.go).
// Originally every stripe owned a lazily-started dispatcher goroutine —
// one parked goroutine per stripe that had ever seen a LockAsync, which
// is exactly the footprint-tracks-capacity cost this library exists to
// avoid, and hostile at service scale where a table holds thousands of
// stripes. Now a bounded pool of WithDispatcherPool(n) workers serves
// every stripe: a submission marks its stripe runnable on a shared run
// queue, and whichever worker picks the stripe up becomes its dispatcher
// for one batch. The engagement protocol (dispatch.go's run-state word)
// preserves the at-most-one-dispatcher-per-stripe invariant, so every
// guarantee below — FIFO grant order, Grant ownership, crash absorption —
// is unchanged; goroutine cost now tracks actual delivery concurrency,
// min(n, active stripes), not the stripe count.
//
// The pool bound buys that footprint with one new liveness caveat. A
// worker delivering a grant blocks until the stripe's current holder
// settles, and a blocked worker occupies a pool slot; a workload whose
// grant-holders wait, in turn, for deliveries on *other* stripes can
// therefore exhaust the pool where per-stripe dispatchers could not
// (n cross-stripe dependency chains need n+1 workers to untangle). The
// multi-key rules already forbid the unordered hold-and-wait patterns
// that make such chains unbounded — see LockAsync's striping notes —
// but services that intentionally park many unreceived grants while
// issuing more async traffic should size WithDispatcherPool to that
// concurrency rather than to GOMAXPROCS.
//
// # Grant ownership
//
// A Grant is the stripe tenancy itself, and exactly one party owns it at
// any moment: the dispatcher until it delivers, then the channel buffer
// (or callback invocation), then whoever received it. The owner must
// eventually call Grant.Unlock (release the key) or Grant.Abandon (mark
// the tenancy orphaned for the next reclaim sweep — the move for a
// supervisor holding a grant whose intended consumer died). A grant parked
// in an unreceived channel still holds its stripe: the request is not
// cancellable, exactly as a synchronous Lock already past its enqueue is
// not.
//
// # Crash semantics
//
// Worker deaths keep their meaning under async acquisition:
//
//   - A crash injected while the dispatcher runs the lock protocol orphans
//     the lease (the same OrphanOnCrash guard as the synchronous path),
//     and the dispatcher — infrastructure, not a modeled process — absorbs
//     the Crash panic, sweeps, and retries, so the request is eventually
//     granted. This mirrors Do's reclaim-and-retry supervisor.
//   - A callback (LockAsyncFunc fn) that dies with a Crash panic orphans
//     its tenancy in place; the dispatcher absorbs the panic and keeps
//     serving. The orphan surfaces through Orphans() and is recovered by
//     the next Reclaim, exactly like a synchronous holder's death.
//   - A requester that dies before receiving leaves the Grant in the
//     channel — not lost: its supervisor drains the channel and calls
//     Abandon (or Unlock), routing the tenancy into the ordinary orphan
//     machinery.

// Grant is a completed asynchronous acquisition: the holder's capability
// for one key tenancy. The zero Grant is invalid; grants are delivered by
// LockAsync channels and LockAsyncFunc callbacks. A Grant must be settled
// exactly once, with Unlock or Abandon.
type Grant struct {
	sh  *lockShard
	key uint64
	l   PortLease
	req *asyncReq // recycled on settle; nil for callback-delivered grants
}

// Key returns the key this grant holds.
func (g Grant) Key() uint64 { return g.key }

// Unlock releases the granted key, like LockTable.Unlock on a
// synchronously acquired key. If the calling goroutine dies inside the
// release (a Crash panic), the tenancy is orphaned in its last breath and
// the panic propagates to the caller's supervisor, whose reclaim sweep
// completes the release.
func (g Grant) Unlock() {
	g.sh.unlockPort(g.l)
	g.sh.pool.Release(g.l)
	if g.req != nil {
		g.sh.putReq(g.req)
	}
}

// Abandon marks the grant's tenancy orphaned without releasing it — the
// supervisor's move when the intended grantee died after delivery but
// before taking ownership (e.g. a worker that crashed between LockAsync
// and the channel receive; its supervisor drains the channel and abandons
// the grant). The orphan surfaces through Orphans() and the next reclaim
// sweep recovers the stripe. Abandon, like Unlock, settles the grant:
// using it afterwards is a stale-lease panic.
//
// Abandon remains valid after LockTable.Close: Close stops intake, it does
// not revoke outstanding grants, and the supervisor draining a dead
// worker's channels typically runs during shutdown — exactly when the
// table is already closed. The orphaned tenancy surfaces through Orphans()
// and Reclaim recovers it as usual; both stay fully functional on a closed
// table.
func (g Grant) Abandon() {
	g.sh.pool.Orphan(g.l)
	if g.req != nil {
		g.sh.putReq(g.req)
	}
}

// asyncReq is one queued acquisition: an intrusive inbox node plus the
// completion (channel or callback). Nodes are recycled through their
// shard's free list (pre-filled by WithAsyncPrewarm); each node's channel
// is created once and reused, so a warm async passage allocates nothing.
type asyncReq struct {
	key  uint64
	ch   chan Grant  // cap 1; owned by the request until the grant is settled
	fn   func(Grant) // callback variant; nil for the channel variant
	next *asyncReq   // inbox / free-list link
	// ctx and cch are the cancellable variant's completion (LockAsyncContext);
	// both nil for plain LockAsync/LockAsyncFunc requests. cch is unbuffered —
	// the dispatcher's send is a rendezvous, so "delivered" and "cancelled"
	// are mutually exclusive outcomes of one select — and is reused across
	// requests like ch; a cch consumed by a cancellation (closed) is dropped
	// and recreated on the node's next cancellable request.
	ctx context.Context
	cch chan Grant
}

// dispatcher is one stripe's async service state: the request inbox plus
// the runnable flag word the shared executor schedules the stripe by.
// The stripe owns no goroutine — delivery is done by whichever pool
// worker engages the stripe (see dispatch.go).
type dispatcher struct {
	// inbox is a lock-free LIFO of submitted requests (reversed to FIFO by
	// the engaged worker when it drains).
	inbox atomic.Pointer[asyncReq]
	// deliverMu serializes every swap-and-deliver batch of the stripe —
	// the engaged worker's batches, exiting workers' final drains, and any
	// close-race drainer goroutines (see drainClosed). Because each batch
	// is swapped and fully delivered under the mutex, batches are
	// delivered in the temporal order of their swaps and requests in FIFO
	// order within each batch, which is what makes LockAsync's
	// per-submitter grant ordering hold unconditionally, Close races
	// included. Uncontended (the engagement protocol admits one worker
	// per stripe) outside those races, so the hot path pays one
	// uncontended lock per batch.
	deliverMu sync.Mutex
	// runState is the stripe's scheduling word — idle / queued / active /
	// active-dirty — the executor's at-most-once run-queue admission
	// protocol; see dispatch.go.
	runState atomic.Int32
	// depth tracks the stripe's pending async requests: submissions whose
	// delivery has not yet acquired a lease (or shed). Decremented only
	// once the tenancy is held — not at batch-swap time — so a request
	// is visible through depth or InUse at every instant; Quiesced's
	// correctness depends on that overlap (see LockTable.Quiesced).
	depth atomic.Int64
}

// LockAsync enqueues an acquisition of key and returns immediately; the
// Grant is delivered on the returned channel (capacity 1, so delivery
// never blocks the stripe's dispatcher) once the key's stripe is handed
// over. Requests on one stripe are granted in LockAsync call order as
// observed per submitting goroutine.
//
// The receiver owns the grant and must settle it (Grant.Unlock or
// Grant.Abandon); the channel is recycled at settle time and must not be
// received from again. Do not wait for a grant while holding another key
// of this table unless the waits are ordered by ShardIndex with at most
// one key per stripe — a grant request is a lock acquisition, and both
// the same-stripe self-deadlock and the ABBA rules on ShardIndex apply to
// it unchanged.
//
// Crash-free async passages allocate nothing once the request free list
// and the shard's node pools are warm (WithAsyncPrewarm warms the former
// at construction).
func (t *LockTable) LockAsync(key uint64) <-chan Grant {
	sh := t.shardOf(key)
	r := sh.getReq()
	r.key = key
	r.fn = nil
	t.submit(sh, r)
	return r.ch
}

// closedGrantChan is returned by LockAsyncContext for a request shed before
// submission: an already-closed channel, so the caller's receive completes
// immediately with ok == false and the pre-expired path allocates nothing.
var closedGrantChan = func() chan Grant {
	c := make(chan Grant)
	close(c)
	return c
}()

// LockAsyncContext is LockAsync with a cancellation budget. The returned
// channel settles exactly once: either a Grant is delivered (receive with
// ok == true; the receiver owns it and must settle it), or the channel is
// closed without one (ok == false; the request was shed — ctx was cancelled
// or expired before the stripe was handed over — and the caller holds
// nothing). Sheds are counted in the stripe's ShardStats.
//
// Cancellation races with the grant in three ways, and each settles exactly
// once. Cancelled before the dispatcher reaches the request: shed without
// touching the stripe. Cancelled while the dispatcher is acquiring: the
// acquisition itself is not interrupted (the dispatcher is mid-protocol on
// behalf of the whole stripe), but the grant is not deliverable — see next.
// Cancelled after the grant exists but before the caller receives it: the
// dispatcher's send and the cancellation race in one select; if the
// cancellation wins, the channel is closed and the already-won tenancy
// degrades to an auto-Abandon — it is routed into the ordinary orphan
// machinery and the next reclaim sweep releases the stripe, exactly as if
// the grantee had received it and died. A caller whose ctx fires must
// still complete the receive (the ok == false case) before discarding the
// channel; abandoning the receive leaves the race unobserved, not broken.
//
// A ctx that can never be cancelled degrades to plain LockAsync. Like
// LockAsync, the uncancelled path allocates nothing once the request free
// list is warm; cancellations may allocate (a replacement channel).
func (t *LockTable) LockAsyncContext(ctx context.Context, key uint64) <-chan Grant {
	if ctx == nil || ctx.Done() == nil {
		return t.LockAsync(key)
	}
	sh := t.shardOf(key)
	if err := ctx.Err(); err != nil {
		sh.noteShed(err)
		return closedGrantChan
	}
	r := sh.getReq()
	r.key = key
	r.fn = nil
	r.ctx = ctx
	if r.cch == nil {
		r.cch = make(chan Grant)
	}
	// Capture before submit: the dispatcher may complete (and recycle) the
	// node before submit returns.
	cch := r.cch
	t.submit(sh, r)
	return cch
}

// LockAsyncFunc enqueues an acquisition of key and returns immediately;
// fn is called with the Grant once the stripe is handed over. fn runs on
// the pool worker engaged with the stripe, so it serializes the stripe's
// grant pipeline — and occupies one of the table's WithDispatcherPool
// slots for its duration: keep it short, and never block it on another
// grant of the same stripe (self-deadlock: the worker that would deliver
// that grant is the goroutine being blocked; grants on other stripes are
// also suspect — see the pool-liveness note at the top of this file).
//
// fn owns the grant and must settle it (Unlock/Abandon) before
// returning. If fn panics with an injected Crash while still owning it,
// the tenancy is orphaned (surfacing via Orphans(), recovered by the
// next sweep) and the dispatcher absorbs the panic and keeps serving — a
// worker death must not take the stripe's service down with it. Any
// other panic is a bug and propagates, crashing the dispatcher loudly.
//
// Do NOT hand the grant from fn to another goroutine: died-holding is
// judged by the lease word alone, so a Crash panic out of fn after a
// hand-off would orphan the recipient's live tenancy and a subsequent
// sweep would re-enter a critical section that is still occupied.
// Workflows that move grants between goroutines must use LockAsync,
// whose channel is exactly that hand-off.
func (t *LockTable) LockAsyncFunc(key uint64, fn func(Grant)) {
	if fn == nil {
		panic("rme: LockAsyncFunc with nil callback")
	}
	sh := t.shardOf(key)
	r := sh.getReq()
	r.key = key
	r.fn = fn
	t.submit(sh, r)
}

// submit pushes r onto its stripe's inbox and marks the stripe runnable
// on the shared executor (which wakes a parked worker, or spawns one
// while the pool is under its bound — the spawn is the submit path's
// only possible allocation, and WithAsyncPrewarm's eager pool removes
// even that).
//
// The closed checks bracket the push, and both are load-bearing. The one
// before is the intake stop: a submission that observes closed panics and
// enqueues nothing. The one after closes the stranding race with Close():
// a submission whose first check passed while Close ran may have pushed
// onto an inbox the pool has already drained for the last time. If that
// happened, this submitter is guaranteed to observe closed here (every
// exiting worker's final drain starts only after Close's store, so a push
// the drains missed must follow the store — and this load follows the
// push), and it spawns a transient drainer that completes the stranded
// requests. The drainer must be its own goroutine, not an inline call:
// delivery blocks until the stripe's current holder releases, and the
// current holder can be this very submitter's earlier grant, parked in a
// channel it cannot receive from while stuck inside submit. All drainers
// and pool workers may drain concurrently; the inbox Swap hands each
// request to exactly one of them.
func (t *LockTable) submit(sh *lockShard, r *asyncReq) {
	if t.closed.Load() {
		panic("rme: async acquisition on a closed LockTable")
	}
	d := &sh.disp
	for {
		h := d.inbox.Load()
		r.next = h
		if d.inbox.CompareAndSwap(h, r) {
			break
		}
	}
	d.depth.Add(1)
	t.exec.schedule(sh)
	if t.closed.Load() {
		go t.drainClosed(sh)
	}
}

// drainClosed empties sh's inbox and completes every request found — the
// closed-table settlement path, run by every exiting worker as its final
// drain after observing closed and on a transient goroutine spawned by
// any submitter whose post-push re-check observed closed (see submit).
// Requests are delivered, not dropped: they passed the intake check
// before Close became visible to them, and an accepted request must end
// in a grant. Delivery goes through the same mutex-serialized batches as
// the workers' own engagements, so the per-submitter FIFO grant order
// holds even for the requests that raced Close.
func (t *LockTable) drainClosed(sh *lockShard) {
	for t.deliverBatch(sh) {
	}
}

// Close shuts the table's async tier down: subsequent LockAsync /
// LockAsyncFunc / batch calls panic, the executor's workers drain the
// stripes' inboxes and exit. Synchronous Lock/Unlock and reclaim sweeps
// are unaffected, and outstanding grants stay valid — Close stops
// intake, it does not revoke tenancies. Close is idempotent and safe to
// race with in-flight async submissions: a submission concurrent with
// Close either panics (it observed the closed table) or is completed
// normally — its grant is delivered by an exiting worker's final drain,
// or failing that by a transient drainer goroutine the submitter spawns
// on its way out, which in that narrow window delivers grants (and runs
// LockAsyncFunc callbacks) in place of the pool. No accepted request is
// ever stranded, and the per-submitter FIFO grant order survives the
// race (all deliveries of a stripe are serialized through one mutex).
//
// Close does not interrupt in-flight deliveries, and does not block on
// them either: it broadcasts the pool's idle chain and returns, and each
// worker exits once the run queue is empty, after completing the
// requests it already holds and running one last drain pass. A worker's
// goroutine therefore only winds down if the stripes' outstanding
// tenancies eventually settle (or a sweep reclaims their orphans) — the
// same liveness assumption every waiter in the table lives under. Close
// must not wait for that itself: the holder a worker is blocked behind
// can be a grant parked in Close's caller's own hands (see
// TestLockTableClose's close-then-settle pattern).
func (t *LockTable) Close() {
	if t.closed.Swap(true) {
		return
	}
	// Join the supervisor first: Close returning means no supervisor work
	// is still in flight (heal goroutines included).
	if t.sup != nil {
		t.sup.join()
	}
	// Wake the whole pool: parked workers re-check their condition (which
	// includes closed), run their final drains, and exit.
	t.exec.idle.Broadcast()
}

// deliverBatch swaps one inbox batch and delivers every request in it,
// FIFO, all under the stripe's delivery mutex; it reports whether there
// was a batch to deliver. Swapping inside the mutex is what makes grant
// order well-defined under concurrent drains: batches are delivered in
// the temporal order of their swaps, and a submitter's later push can
// only land in a later batch.
func (t *LockTable) deliverBatch(sh *lockShard) bool {
	d := &sh.disp
	d.deliverMu.Lock()
	defer d.deliverMu.Unlock()
	head := d.inbox.Swap(nil)
	if head == nil {
		return false
	}
	// The inbox is push-LIFO; reverse the drained burst to FIFO so
	// grants go out in submission order. The stripe's depth is NOT
	// decremented here: a swapped-but-undelivered request still owes a
	// grant while holding no lease, and decrementing at swap time opened
	// exactly the false-quiescent window TestDispatchQuiescedPendingDelivery
	// pins. Each request leaves the count inside deliver, once its
	// tenancy is held (or it sheds).
	var fifo *asyncReq
	for head != nil {
		next := head.next
		head.next = fifo
		fifo = head
		head = next
	}
	for fifo != nil {
		r := fifo
		fifo = r.next
		r.next = nil
		t.deliver(sh, r)
	}
	return true
}

// deliver acquires r's tenancy and completes the request. Injected
// crashes during the acquisition orphan the lease (the worker died) and
// are absorbed with a reclaim-and-retry, Do-style: the dispatcher is
// infrastructure and must outlive any number of modeled deaths.
func (t *LockTable) deliver(sh *lockShard, r *asyncReq) {
	// Pre-acquire shed: a cancellable request whose ctx already fired is
	// completed without touching the stripe — close the channel (the
	// caller's receive yields ok == false) and recycle the node with a
	// fresh-channel debt.
	if r.ctx != nil {
		if err := r.ctx.Err(); err != nil {
			sh.noteShed(err)
			sh.disp.depth.Add(-1)
			close(r.cch)
			r.cch = nil
			r.ctx = nil
			sh.putReq(r)
			return
		}
	}
	var l PortLease
	for {
		crashed := crashes(func() {
			l = sh.pool.Acquire()
			sh.key[l.Port].Store(r.key)
			sh.lockPort(l)
		})
		if !crashed {
			break
		}
		t.Reclaim()
	}
	// The tenancy is held: the request's pending count hands over to
	// InUse. This ordering (lease first, decrement second) is what keeps
	// the request visible to Quiesced at every instant.
	sh.disp.depth.Add(-1)
	g := Grant{sh: sh, key: r.key, l: l, req: r}
	if fn := r.fn; fn != nil {
		// Callback delivery: the request node is done (its channel was
		// never involved) — recycle it before fn runs, since fn may never
		// return control of g to us.
		r.fn = nil
		g.req = nil
		sh.putReq(r)
		t.runCallback(g, fn)
		return
	}
	if r.ctx != nil {
		// Cancellable delivery: a rendezvous, so exactly one of the two
		// arms settles the request. If the cancellation wins after the
		// tenancy was already won, the grant degrades to an auto-Abandon —
		// into the same orphan machinery as a grantee that received and
		// died — and the closed channel tells the caller it holds nothing.
		ctx, cch := r.ctx, r.cch
		select {
		case cch <- g:
			// Delivered; the receiver settles g (recycling r through g.req).
		case <-ctx.Done():
			sh.noteShed(ctx.Err())
			close(cch)
			r.cch = nil
			r.ctx = nil
			if t.noAbortFixup.Load() {
				// Hazard mode (test hook): drop the grant on the floor. The
				// tenancy stays held with no holder — invisible to Orphans()
				// and unreclaimable — which is the leak the auto-Abandon
				// exists to prevent.
				sh.putReq(r)
				return
			}
			sh.pool.Orphan(g.l)
			sh.putReq(r)
		}
		return
	}
	// Channel delivery. Cap-1 and necessarily empty: the node is recycled
	// only after its previous grant was received and settled.
	r.ch <- g
}

// runCallback invokes a grant callback under the dispatcher's crash
// guard (split out so the defer is open-coded).
func (t *LockTable) runCallback(g Grant, fn func(Grant)) {
	defer t.callbackGuard(g)
	fn(g)
}

// callbackGuard converts a callback's Crash panic into an orphaned
// tenancy and absorbs it; see LockAsyncFunc. If the callback had already
// settled the grant when it died, there is no tenancy left to mark and
// the death needs no bookkeeping at all.
func (t *LockTable) callbackGuard(g Grant) {
	r := recover()
	if r == nil {
		return
	}
	if _, ok := AsCrash(r); !ok {
		panic(r)
	}
	// Best-effort orphan: the CAS fails harmlessly if fn already settled
	// the grant (released, abandoned, or a later tenancy moved the word).
	g.sh.pool.transition(g.l, leaseHeld, leaseOrphaned)
}

// getReq pops a recycled request node from the shard's free list, or
// builds a fresh one (its grant channel is created here, once, and
// reused for every later request the node carries).
func (sh *lockShard) getReq() *asyncReq {
	sh.reqMu.Lock()
	r := sh.reqFree
	if r != nil {
		sh.reqFree = r.next
		r.next = nil
	}
	sh.reqMu.Unlock()
	if r == nil {
		r = &asyncReq{ch: make(chan Grant, 1)}
	}
	return r
}

// putReq recycles a settled request node onto the shard's free list.
func (sh *lockShard) putReq(r *asyncReq) {
	r.fn = nil
	r.ctx = nil // drop the context reference; cch (if still open) is reused
	sh.reqMu.Lock()
	r.next = sh.reqFree
	sh.reqFree = r
	sh.reqMu.Unlock()
}
