package rme

import (
	"context"
	"runtime"
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
// eventually call Grant.Unlock (release the key) or Grant.Abandon (orphan
// the tenancy for recovery — the move for a supervisor holding a grant
// whose intended consumer died). A grant parked in an unreceived channel
// still holds its stripe: the request is not cancellable, exactly as a
// synchronous Lock already past its enqueue is not.
//
// # Crash semantics
//
// Worker deaths keep their meaning under async acquisition:
//
//   - A crash injected while the dispatcher runs the lock protocol orphans
//     the lease (the same crash guard as the synchronous path), and the
//     dispatcher — infrastructure, not a modeled process — absorbs the
//     Crash panic, sweeps, and retries, so the request is eventually
//     granted. This mirrors Do's reclaim-and-retry supervisor.
//   - A callback (LockAsyncFunc fn) that dies with a Crash panic orphans
//     its tenancy in place; the dispatcher absorbs the panic and keeps
//     serving. The orphan surfaces through Orphans() and is recovered by
//     the next Reclaim (or at once, on a supervised table), exactly like a
//     synchronous holder's death.
//   - A requester that dies before receiving leaves the Grant in the
//     channel — not lost: its supervisor drains the channel and calls
//     Abandon (or Unlock), routing the tenancy into the ordinary orphan
//     machinery.
//
// # Close
//
// Close stops intake with one handshake: it waits only for submissions
// already past their intake check to schedule their stripes, which never
// blocks, and then releases the pool. It never waits for a delivery or a
// heal, since either may be queued behind a key Close's caller holds (see
// LockTable.Close).

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
// sweep recovers the stripe; on a table built WithSupervisor, Abandon
// starts that recovery itself. Abandon, like Unlock, settles the grant:
// using it afterwards is a stale-lease panic.
//
// Abandon remains valid after LockTable.Close: Close stops intake, it does
// not revoke outstanding grants, and the supervisor draining a dead
// worker's channels typically runs during shutdown — exactly when the
// table is already closed. The orphaned tenancy surfaces through Orphans()
// and is recovered as usual; Reclaim and supervised heals stay fully
// functional on a closed table.
func (g Grant) Abandon() {
	g.sh.orphan(g.l)
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
// the scheduled bit the shared executor admits the stripe by.
// The stripe owns no goroutine — delivery is done by whichever pool
// worker engages the stripe (see dispatch.go).
type dispatcher struct {
	// inbox is a lock-free LIFO of submitted requests (reversed to FIFO by
	// the engaged worker when it drains).
	inbox atomic.Pointer[asyncReq]
	// scheduled is set while the stripe is in the run queue or engaged
	// with a worker — the executor's at-most-once run-queue admission
	// protocol; see dispatch.go. It also makes the engaged worker the
	// stripe's only deliverer: batches are delivered in the order of their
	// swaps, and requests in FIFO order within each batch, which is what
	// makes LockAsync's per-submitter grant ordering hold.
	scheduled atomic.Bool
	// submitting counts submissions between their intake check and the end
	// of their stripe's schedule — Close's intake handshake (see submit).
	submitting atomic.Int32
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
	// Close is honoured before the shed, so a closed table panics for
	// every ctx, an already-expired one included.
	if t.closed.Load() {
		panic(errClosedAsync)
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

// errClosedAsync is the panic of an async acquisition on a closed table.
const errClosedAsync = "rme: async acquisition on a closed LockTable"

// submit pushes r onto its stripe's inbox and marks the stripe runnable
// on the shared executor (which claims an idle worker, or spawns one
// while the pool is under its bound — the spawn is the submit path's
// only possible allocation, and WithAsyncPrewarm's eager pool removes
// even that).
//
// The stripe's submitting count brackets the closed check and the
// schedule; it is Close's half of the intake handshake. A submission
// that observes closed panics and enqueues nothing. One that observes it
// open raised its count before that load, and Close loads the counts
// only after storing closed, so Close sees this submission counted until
// its stripe is scheduled — and waits for it. Nothing in between blocks:
// the push is a CAS loop and the run-queue send always has room.
func (t *LockTable) submit(sh *lockShard, r *asyncReq) {
	d := &sh.disp
	d.submitting.Add(1)
	if t.closed.Load() {
		d.submitting.Add(-1)
		panic(errClosedAsync)
	}
	for {
		h := d.inbox.Load()
		r.next = h
		if d.inbox.CompareAndSwap(h, r) {
			break
		}
	}
	d.depth.Add(1)
	t.exec.schedule(sh)
	d.submitting.Add(-1)
}

// Close shuts the table's async tier down: subsequent LockAsync /
// LockAsyncContext / LockAsyncFunc / batch calls panic, and the
// executor's workers deliver what was accepted and exit. Synchronous
// Lock/Unlock, reclaim sweeps and supervised heals are unaffected, and
// outstanding grants stay valid — Close stops intake, it does not revoke
// tenancies. Close is idempotent and safe to race with in-flight async
// submissions: a submission concurrent with Close either panics (it
// observed the closed table) or is accepted, and every accepted request
// is delivered, in the per-submitter FIFO grant order.
//
// Close stores closed, waits until no submission that saw the table open
// is still between its check and its stripe's schedule (see submit), then
// closes the pool's stop channel. So when stop closes, every accepted
// request sits on an inbox whose stripe is queued or engaged, and a
// worker leaves only once the run queue is empty: no accepted request is
// stranded.
//
// Close waits for nothing else — not for deliveries, not for heals. A
// delivery blocks until the stripe's holder settles, and a supervised
// heal until the lock it recovers is free, and either may be waiting on
// Close's caller: a grant parked in the caller's own hands (see
// TestLockTableClose's close-then-settle pattern) or a key the caller
// holds. A worker's goroutine therefore winds down once the stripes'
// outstanding tenancies settle or heal — the same liveness assumption
// every waiter in the table lives under.
func (t *LockTable) Close() {
	if t.closed.Swap(true) {
		return
	}
	for i := range t.shards {
		for t.shards[i].disp.submitting.Load() != 0 {
			runtime.Gosched()
		}
	}
	close(t.exec.stop)
}

// deliverBatch swaps one inbox batch and delivers every request in it,
// FIFO. Only the worker engaged with the stripe calls it, so batches are
// delivered in the order of their swaps, and a submitter's later push can
// only land in a later batch.
func (t *LockTable) deliverBatch(sh *lockShard) {
	head := sh.disp.inbox.Swap(nil)
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
	for crashes(func() { l, _ = sh.lock(t, r.key, nil) }) {
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
			sh.orphan(g.l)
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
	if g.sh.pool.transition(g.l, leaseHeld, leaseOrphaned) {
		g.sh.healAtBirth(g.l)
	}
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
