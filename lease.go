package rme

import (
	"fmt"
	"sync/atomic"
	"time"

	"github.com/rmelib/rme/internal/wait"
)

// The paper's model gives every process a fixed identity for life; the
// runtime port expresses that as ports, and until now the only safe usage
// was one pinned goroutine per port forever. PortLeaser relaxes that:
// arbitrary worker goroutines borrow a port for the duration of a passage
// (or any longer tenancy) and hand it back, with an epoch-stamped
// ownership word per port making stale hand-backs detectable and crashed
// lessees recoverable.
//
// Each port's word packs (epoch << 2 | state). A successful acquisition
// CASes free→held while bumping the epoch, so a PortLease is a capability
// for exactly one tenancy: releasing (or orphaning) it CASes against the
// full word, and a lease from an earlier tenancy fails its CAS and panics
// instead of corrupting the current lessee's port.
//
// Crashes reuse the library's Crash panic protocol: when a lessee dies
// mid-protocol, whoever observes the death (normally the deferred guard
// installed by OrphanOnCrash) marks the lease orphaned. An orphaned port
// still owns whatever protocol state the dead worker left behind — it may
// hold the lock's critical section, or sit mid-queue stalling its
// successors — so orphans must be reclaimed promptly: ReclaimOrphans runs
// a caller-supplied recovery (typically the recovery Lock/Unlock on the
// same port) and only then returns the port to the free pool.

// Lease states, held in the low bits of each port's ownership word.
const (
	leaseFree uint64 = iota
	leaseHeld
	leaseOrphaned
	leaseReclaiming

	leaseStateMask  uint64 = 3
	leaseEpochShift        = 2
)

// LeaseState is the observable tenancy state of one port.
type LeaseState int

const (
	// LeaseFree: the port is available for TryAcquire.
	LeaseFree LeaseState = iota
	// LeaseHeld: a live worker holds the port.
	LeaseHeld
	// LeaseOrphaned: the holder died; the port awaits a recovery sweep.
	LeaseOrphaned
	// LeaseReclaiming: a recovery sweep claimed the port and is running
	// the recovery protocol on it.
	LeaseReclaiming
)

func (s LeaseState) String() string {
	switch s {
	case LeaseFree:
		return "free"
	case LeaseHeld:
		return "held"
	case LeaseOrphaned:
		return "orphaned"
	case LeaseReclaiming:
		return "reclaiming"
	}
	return fmt.Sprintf("LeaseState(%d)", int(s))
}

// PortLease is the capability returned by a successful acquisition: the
// port index plus the tenancy epoch it was granted under. The zero value
// is not a valid lease. Leases are values; copy them freely, but release
// each tenancy exactly once.
type PortLease struct {
	// Port is the leased port (or process) index.
	Port int

	epoch uint64
}

// PortLeaser multiplexes a fixed set of port identities over arbitrary
// worker goroutines. It manages identities only — pair it with the
// Mutex/TreeMutex (or LockTable shard) whose ports it guards. All state is
// in the ownership words, so the leaser itself obeys the same
// crash-recovery story as the locks: a dead worker loses nothing that a
// replacement can't pick up from the word.
type PortLeaser struct {
	words []paddedUint64
	// clock rotates the scan start so independent acquirers don't all
	// hammer port 0's word.
	clock atomic.Uint64
	// strat is how blocked acquirers pass the time; chain is the engine's
	// multi-waiter list they park on, one wake handed out per port freed.
	strat wait.Strategy
	chain wait.Chain
	// freeCond is anyFree bound once at construction, so the Acquire slow
	// path does not allocate a method-value closure per wait.
	freeCond func() bool
}

// NewPortLeaser creates a leaser for ports identities, all initially free.
// Options select how blocked acquirers wait (WithWaitStrategy); a leaser
// paired with a lock should use the lock's strategy, as NewLockTable does
// for its shards. Other options are ignored.
func NewPortLeaser(ports int, opts ...Option) *PortLeaser {
	if ports <= 0 {
		panic("rme: NewPortLeaser needs at least one port")
	}
	cfg := buildConfig(opts)
	p := &PortLeaser{words: make([]paddedUint64, ports), strat: cfg.strat}
	p.freeCond = p.anyFree
	return p
}

// anyFree reports whether some port is currently free — the wake-up
// condition blocked acquirers re-check against the register/release race.
func (p *PortLeaser) anyFree() bool {
	for i := range p.words {
		if p.words[i].Load()&leaseStateMask == leaseFree {
			return true
		}
	}
	return false
}

// Ports returns the number of identities the leaser manages, fixed at
// construction.
func (p *PortLeaser) Ports() int { return len(p.words) }

// TryAcquire claims a free port, bumping its epoch, and returns its
// lease. It fails (ok == false) only when no port is currently free —
// orphaned ports do not count as free until a recovery sweep reclaims
// them.
func (p *PortLeaser) TryAcquire() (l PortLease, ok bool) {
	n := len(p.words)
	// Reduce before converting: on 32-bit targets a truncated int(clock)
	// can be negative, and Go's % would keep the sign.
	start := int(p.clock.Add(1) % uint64(n))
	for i := 0; i < n; i++ {
		port := start + i
		if port >= n {
			port -= n
		}
		w := p.words[port].Load()
		if w&leaseStateMask != leaseFree {
			continue
		}
		epoch := (w >> leaseEpochShift) + 1
		if p.words[port].CompareAndSwap(w, epoch<<leaseEpochShift|leaseHeld) {
			return PortLease{Port: port, epoch: epoch}, true
		}
	}
	return PortLease{}, false
}

// Acquire is AcquireDone with a nil done: it claims a free port, waiting
// as long as it takes.
func (p *PortLeaser) Acquire() PortLease {
	l, _ := p.AcquireDone(nil)
	return l
}

// AcquireDone claims a free port, waiting for one to be released (or
// reclaimed) if all are currently leased, and returns ok=false if done
// closes first (a nil done never does). Blocked acquirers park on the wait
// engine's multi-waiter chain under the leaser's wait strategy — every
// Release (and every port a reclaim sweep frees) hands out exactly one
// wake — so a queue of acquirers costs wakes, not burned scheduler quanta.
// The wait allocates nothing once the chain's node free list is warm.
// Liveness depends on orphans being reclaimed: if every port is orphaned
// and nobody sweeps, an uncancellable acquire parks forever — run
// ReclaimOrphans from the same supervisor that observes worker deaths.
//
// The cancel path inherits the wait engine's no-lost-wake contract — a
// cancelled waiter that was already handed a Release's wake forwards it to
// the next parked acquirer (see wait.Chain.Wait) — so abandoning an
// acquisition can never strand a free port behind a dropped wake. A
// cancellation returns immediately without a final scan: done closing is a
// deadline, and the caller asked not to take a port past it.
func (p *PortLeaser) AcquireDone(done <-chan struct{}) (PortLease, bool) {
	for {
		if l, ok := p.TryAcquire(); ok {
			return l, true
		}
		if !p.chain.Wait(p.strat, p.freeCond, done) {
			return PortLease{}, false
		}
	}
}

// Release returns a held port to the free pool. It panics if the lease is
// stale (the tenancy was already released or orphaned): the epoch check is
// what makes a forgotten double-release loud instead of silently revoking
// a later lessee's port.
func (p *PortLeaser) Release(l PortLease) {
	if !p.transition(l, leaseHeld, leaseFree) {
		panic(fmt.Sprintf("rme: Release of stale lease (port %d, epoch %d, word now %s/%d)",
			l.Port, l.epoch, p.State(l.Port), p.epochOf(l.Port)))
	}
	p.chain.Wake() // one port freed: hand one parked acquirer its wake
}

// Orphan marks a held port's lessee as dead, scheduling the port for a
// recovery sweep. It is called by whoever observed the death — normally
// the deferred guard installed by OrphanOnCrash in the dying goroutine
// itself, whose panic is the library's model of a process crash. Orphan
// panics on a stale lease for the same reason Release does.
func (p *PortLeaser) Orphan(l PortLease) {
	if !p.transition(l, leaseHeld, leaseOrphaned) {
		panic(fmt.Sprintf("rme: Orphan of stale lease (port %d, epoch %d, word now %s/%d)",
			l.Port, l.epoch, p.State(l.Port), p.epochOf(l.Port)))
	}
}

// transition CASes port l.Port from (l.epoch, from) to (l.epoch, to).
func (p *PortLeaser) transition(l PortLease, from, to uint64) bool {
	if l.Port < 0 || l.Port >= len(p.words) {
		panic(fmt.Sprintf("rme: lease port %d out of range [0,%d)", l.Port, len(p.words)))
	}
	old := l.epoch<<leaseEpochShift | from
	return p.words[l.Port].CompareAndSwap(old, l.epoch<<leaseEpochShift|to)
}

// OrphanOnCrash runs f under a guard that marks the lease orphaned if f
// panics with an injected Crash (any other panic value passes through
// unmarked — it is a bug, not a modeled death). Wrap each protocol step a
// lessee performs with its leased identity:
//
//	l := leaser.Acquire()
//	leaser.OrphanOnCrash(l, func() { m.Lock(l.Port) })
//	... critical section ...
//	leaser.OrphanOnCrash(l, func() { m.Unlock(l.Port) })
//	leaser.Release(l)
//
// The guard runs in the dying goroutine while the panic unwinds, which is
// the runtime stand-in for the environment noticing a process death; the
// panic then continues to the caller's recovery harness.
func (p *PortLeaser) OrphanOnCrash(l PortLease, f func()) {
	defer p.orphanGuard(l)
	f()
}

// orphanGuard is OrphanOnCrash's deferred crash handler (a named method so
// the defer is open-coded and the crash-free path does not allocate).
func (p *PortLeaser) orphanGuard(l PortLease) {
	if r := recover(); r != nil {
		if _, ok := AsCrash(r); ok {
			p.Orphan(l)
		}
		panic(r)
	}
}

// State reports the tenancy state of one port. The answer is a racy
// snapshot: a concurrent acquire or sweep may have moved the word by the
// time the caller acts on it.
func (p *PortLeaser) State(port int) LeaseState {
	switch p.words[port].Load() & leaseStateMask {
	case leaseFree:
		return LeaseFree
	case leaseHeld:
		return LeaseHeld
	case leaseOrphaned:
		return LeaseOrphaned
	default:
		return LeaseReclaiming
	}
}

func (p *PortLeaser) epochOf(port int) uint64 {
	return p.words[port].Load() >> leaseEpochShift
}

// InUse counts ports not currently free (held, orphaned, or mid-reclaim) —
// a quiescence probe for shutdown and tests, with the same snapshot caveat
// as State.
func (p *PortLeaser) InUse() int {
	n := 0
	for i := range p.words {
		if p.words[i].Load()&leaseStateMask != leaseFree {
			n++
		}
	}
	return n
}

// ReclaimOrphans sweeps the leaser: every port found orphaned is claimed,
// recovered by recoverPort, and returned to the free pool. It returns the
// number of ports reclaimed.
//
// Claiming happens for all orphans before any recovery completes, and the
// recoveries run concurrently (one goroutine each): a recovery typically
// runs the lock's recovery Lock on the port, and two orphans can be
// queued behind each other's dead nodes, so reclaiming them one at a time
// could deadlock. recoverPort must run its port's recovery to completion
// and must not panic — retry injected crashes internally (LockTable's
// sweep shows the pattern).
//
// While its recoveries run, the sweep keeps claiming: every reclaimRescan
// it claims the ports orphaned since its last claim pass and recovers them
// too, and it returns only when every port it claimed is recovered. A
// claimed recovery can be queued behind such a late orphan, and nothing
// else may be sweeping, so a sweep that only waited for its first claims
// could block forever. The count returned includes the late claims.
// Concurrent sweeps never claim the same port (the claim is a CAS on the
// epoch-stamped word).
//
// The same claim-everything-first discipline must extend across pools
// when a sweep spans several (one tenancy can die holding several pools'
// ports — a LockTable batch — and their recoveries can depend on each
// other through the locks' queues); that is why LockTable.ReclaimWith
// runs the same sweep loop over every shard's pool at once instead of
// calling this per shard.
func (p *PortLeaser) ReclaimOrphans(recoverPort func(port int)) int {
	return reclaimSweep(p.claimOrphans, func(l PortLease) {
		recoverPort(l.Port)
		p.finishReclaim(l)
	})
}

// reclaimSweep is the one reclaim loop behind ReclaimOrphans and
// LockTable.ReclaimWith. claim appends every orphan it wins to dst; heal
// runs one claim's recovery to completion and returns its port to the
// pool. A pass claims everything before any of its recoveries starts, the
// recoveries run in parallel (one goroutine each), and while any is still
// running the loop claims again every reclaimRescan and heals what it finds.
// It returns the number of claims healed.
func reclaimSweep[C any](claim func(dst []C) []C, heal func(C)) int {
	claims := claim(nil)
	if len(claims) == 0 {
		return 0
	}
	healed := make(chan struct{})
	healAll := func(batch []C) {
		for _, c := range batch {
			go func(c C) {
				heal(c)
				healed <- struct{}{}
			}(c)
		}
	}
	healAll(claims)
	total, pending := len(claims), len(claims)
	rescan := time.NewTicker(reclaimRescan)
	defer rescan.Stop()
	for pending > 0 {
		select {
		case <-healed:
			pending--
		case <-rescan.C:
			claims = claim(claims[:0])
			healAll(claims)
			total += len(claims)
			pending += len(claims)
		}
	}
	return total
}

// reclaimRescan is how often a sweep with recoveries still running claims
// the orphans that appeared since its last claim pass (see reclaimSweep).
const reclaimRescan = time.Millisecond

// claimOrphans is the claim phase of a reclaim sweep: every orphan whose
// orphaned→reclaiming CAS this caller wins is appended to dst. The caller
// owes each claimed lease a recovery followed by finishReclaim.
func (p *PortLeaser) claimOrphans(dst []PortLease) []PortLease {
	for port := range p.words {
		w := p.words[port].Load()
		if w&leaseStateMask != leaseOrphaned {
			continue
		}
		l := PortLease{Port: port, epoch: w >> leaseEpochShift}
		if p.transition(l, leaseOrphaned, leaseReclaiming) {
			dst = append(dst, l)
		}
	}
	return dst
}

// finishReclaim returns a claimed, fully-recovered orphan to the free
// pool and hands a parked acquirer its wake.
func (p *PortLeaser) finishReclaim(l PortLease) {
	if !p.transition(l, leaseReclaiming, leaseFree) {
		panic(fmt.Sprintf("rme: reclaimed lease moved under the sweep (port %d)", l.Port))
	}
	p.chain.Wake()
}
