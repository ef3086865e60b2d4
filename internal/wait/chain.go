package wait

import (
	"sync"
	"sync/atomic"
)

// Chain is the engine's multi-waiter primitive: an unbounded FIFO set of
// wait episodes that any number of goroutines can join, with peers
// handing out wakes one at a time (Wake). It is the building block for
// condition-style waits that the single-episode Cell cannot express — a
// lease pool where every Release should unblock exactly one of
// arbitrarily many parked acquirers.
//
// Each registered waiter gets its own Cell, so the actual blocking runs on
// the same generation-stamped spin words as every other wait in the stack
// and inherits the engine's crash-safety and strategy tuning unchanged.
// List maintenance is under a plain mutex: registration and wake handout
// happen only on contended slow paths (an uncontended acquirer never
// touches the chain), where a microsecond of serialization is noise next
// to the wait itself, and the mutex removes whole classes of lock-free
// list hazards (ABA on node reuse, lost unlink on cancellation).
//
// # The no-lost-wake contract
//
// Wait(st, cond, done) registers the caller, then re-checks cond, and
// only then sleeps; Wake pops the oldest registered waiter and delivers a
// wake to its episode. A waker that changes the condition before calling Wake
// therefore cannot be missed: either the waiter was registered in time to
// be popped, or its post-registration cond re-check observes the change
// and Wait cancels. A cancellation that loses the race with a concurrent
// pop absorbs the incoming wake and passes it on (Wake again), so a wake
// handed to a canceling waiter is forwarded, never dropped.
//
// Waiter nodes are recycled through a per-Chain free list, so steady-state
// waits allocate nothing once the chain has seen its high-water mark of
// concurrent waiters.
type Chain struct {
	mu         sync.Mutex
	head, tail *chainNode // FIFO of registered waiters
	free       *chainNode // recycled nodes, linked through next
	// count mirrors the registered-waiter total so Wake on an empty chain
	// (every uncontended Release) costs one atomic load, not a mutex
	// round-trip. It is maintained under mu but read without it; see Wake
	// for why the race is benign.
	count atomic.Int32
}

type chainNode struct {
	cell   Cell
	next   *chainNode
	queued bool // still linked in the waiter FIFO (guarded by Chain.mu)
}

// Wait registers the caller on the chain, re-checks cond, and if cond is
// still false sleeps under st until a peer's Wake reaches it or done is
// closed (a nil done never is). It reports whether the wait ended by wake
// or condition (true — the caller should re-try its acquisition) rather
// than by cancellation (false). A true cond after registration cancels the
// wait (forwarding any wake that was already aimed at it), so the caller
// can use the classic pattern
//
//	for !tryAcquire() {
//		chain.Wait(st, resourceFree, nil)
//	}
//
// without ever losing a wake to the register/release race. Spurious
// returns are allowed (a forwarded wake can briefly over-wake); callers
// must re-check their condition in a loop, as the pattern above does.
//
// The no-lost-wake contract extends to the cancel path: a cancelled waiter
// that was already popped by a concurrent Wake absorbs the incoming wake —
// sleeping the bounded moment until it lands — and hands it to the next
// registered waiter, so a wake aimed at a departing waiter is forwarded,
// never dropped, and a cancellation that wins the race unlinks a node
// nobody has aimed a wake at. Either way the waiter's generation is
// retired before its node is recycled, settling the episode exactly once.
func (c *Chain) Wait(st Strategy, cond func() bool, done <-chan struct{}) bool {
	n, w := c.register(st)

	if cond() {
		c.retire(st, n, w)
		return true
	}

	if st.Sleep(w, done) {
		c.putFree(n)
		return true
	}
	c.retire(st, n, w)
	return false
}

// register links a fresh episode for the caller at the chain's tail.
func (c *Chain) register(st Strategy) (*chainNode, *Waiter) {
	c.mu.Lock()
	n := c.free
	if n != nil {
		c.free = n.next
	} else {
		n = new(chainNode)
	}
	w := n.cell.Begin(st)
	n.next = nil
	n.queued = true
	if c.tail != nil {
		c.tail.next = n
	} else {
		c.head = n
	}
	c.tail = n
	c.count.Add(1)
	c.mu.Unlock()
	return n, w
}

// retire removes a waiter that no longer wants its wake (its condition came
// true on the re-check, or its wait was cancelled). If the node is still
// queued nobody has aimed a wake at it: unlink and recycle. If a waker
// already popped it, a wake is delivered or in flight — absorb it and hand
// it to the next waiter, who may still need it.
func (c *Chain) retire(st Strategy, n *chainNode, w *Waiter) {
	c.mu.Lock()
	if n.queued {
		c.unlink(n)
		n.next = c.free
		c.free = n
		c.mu.Unlock()
		return
	}
	c.mu.Unlock()
	st.Sleep(w, nil)
	c.Wake()
	c.putFree(n)
}

// unlink removes n from the waiter FIFO. Caller holds mu and has checked
// n.queued; the scan is linear but runs only on the rare cancel path.
func (c *Chain) unlink(n *chainNode) {
	var prev *chainNode
	for cur := c.head; cur != nil; prev, cur = cur, cur.next {
		if cur != n {
			continue
		}
		if prev == nil {
			c.head = cur.next
		} else {
			prev.next = cur.next
		}
		if c.tail == n {
			c.tail = prev
		}
		n.queued = false
		c.count.Add(-1)
		return
	}
	panic("wait: chain node queued but not linked")
}

func (c *Chain) putFree(n *chainNode) {
	c.mu.Lock()
	n.next = c.free
	c.free = n
	c.mu.Unlock()
}

// Wake delivers one wake: the oldest registered waiter is popped and its
// episode woken. On an empty chain it is a no-op costing one atomic load.
//
// The empty fast path cannot lose a wake to a registering waiter: a caller
// that made a resource available did so (in the seq-cst order of the
// resource's atomics) before loading count, while a waiter increments
// count before its cond re-check loads the resource state. If the waker
// reads count == 0, the waiter's increment came later, so its re-check
// comes after the release and observes the resource — the waiter cancels
// itself instead of sleeping.
func (c *Chain) Wake() {
	if c.count.Load() == 0 {
		return
	}
	c.mu.Lock()
	n := c.head
	if n == nil {
		c.mu.Unlock()
		return
	}
	c.head = n.next
	if c.head == nil {
		c.tail = nil
	}
	n.next = nil
	n.queued = false
	c.count.Add(-1)
	c.mu.Unlock()
	// Deliver outside the lock. The episode is necessarily live: its
	// waiter frees the node only after this wake reaches it (or, if it is
	// mid-cancel, it sleeps for exactly this wake and forwards it).
	n.cell.Wake()
}

// Waiters reports how many waiters are currently registered — a racy
// snapshot for tests and introspection.
func (c *Chain) Waiters() int { return int(c.count.Load()) }
