package rme

import (
	"fmt"
	"runtime"
	"sync/atomic"
	"unsafe"

	"github.com/rmelib/rme/internal/wait"
)

// This file is the third shard backend: a recoverable MCS queue lock.
// Where the flat Mutex pays a Θ(k) port-table scan (under one serialized
// repair lock) to recover from a crash, and the TreeMutex pays
// O(log k / log log k) extra hand-off levels on every passage to confine
// repairs, the MCS shape keeps both costs constant: crash-free passages
// are O(1) RMR with every waiter spinning on its own cache-line-padded
// node, and crash recovery touches only the O(1) neighborhood of the dead
// node — its predecessor's next link and its successor's grant — never a
// k-wide scan.

// MCS word layouts. A node reference ("ref") names one passage of one
// port: the port index (plus one, so a ref is never zero) in the low
// mcsRefPortBits bits and the passage epoch above them. The per-port state
// word packs the same epoch over a 3-bit phase. Epochs are bumped once per
// fresh passage; 48 bits of epoch outlast any realistic run, and (as with
// the lease words and the wait engine's generations) only equality is ever
// compared, so even wraparound would need a ref to survive exactly 2^48
// passages of one port to be confused.
const (
	mcsRefPortBits = 16
	mcsMaxPorts    = 1<<mcsRefPortBits - 1

	mcsPhaseBits = 3
	mcsPhaseMask = 1<<mcsPhaseBits - 1
)

// Passage phases, held in the low bits of a node's state word. The word
// advances Idle→Enq→(Wait→)CS→Rel→Idle over one passage; every transition
// is written before the action it licenses, so a replacement caller after
// a crash reads exactly how far the dead passage got.
const (
	mcsIdle uint64 = iota // no passage in flight
	mcsEnq                // enqueue begun; committed iff tail reached the ref
	mcsWait               // enqueued behind pred, waiting for the grant
	mcsCS                 // owns the critical section
	mcsRel                // release begun
)

func mcsRef(port int, epoch uint64) uint64 {
	return epoch<<mcsRefPortBits | uint64(port+1)
}

func mcsRefPort(ref uint64) int     { return int(ref&(1<<mcsRefPortBits-1)) - 1 }
func mcsRefEpoch(ref uint64) uint64 { return ref >> mcsRefPortBits }

func mcsWord(epoch, phase uint64) uint64 { return epoch<<mcsPhaseBits | phase }

// mcsNode is one port's queue node — permanent, epoch-stamped state rather
// than a per-passage allocation, so a replacement caller on the same port
// finds the dead passage's node exactly where the protocol left it. Padded
// so each port's spin state owns its cache lines.
type mcsNode struct {
	// word packs (epoch << mcsPhaseBits | phase): the passage's progress
	// record, and the grant word — the releaser CASes its successor's word
	// Wait→CS, making the hand-off a single epoch-guarded step.
	word atomic.Uint64
	// pred is the ref of the passage's predecessor (0 = the queue was
	// empty). Written only under the enqueue descriptor; trustworthy once
	// word has advanced past mcsEnq, or while tail holds this node's ref.
	pred atomic.Uint64
	// next is the ref of the passage's successor, linked by the successor
	// itself (CAS from 0) after its enqueue commits. Reset by the owner at
	// the start of each passage, before its ref can reach tail.
	next atomic.Uint64
	// cell is where the passage's waiter spins (locally) for the grant;
	// the generation stamp kills wakes aimed at a crashed passage's
	// abandoned episode.
	cell wait.Cell

	_ [cacheLineSize - (3*unsafe.Sizeof(atomic.Uint64{})+unsafe.Sizeof(wait.Cell{}))%cacheLineSize]byte
}

// MCSMutex is a k-ported recoverable MCS queue lock: the library's third
// lock shape, after the flat Mutex and the arbitration TreeMutex. Arrivals
// append to a single-word tail; each waiter spins on its own padded node;
// release hands the critical section to the linked successor with one CAS
// and one wake. All shared state lives on the heap owned by the MCSMutex
// (the stand-in for non-volatile memory), so any goroutine can replace a
// crashed one by calling Lock on the same port.
//
// # Recoverability: epochs plus a locked-descriptor enqueue
//
// The classic recoverable-MCS constructions (e.g. the pmwcas RecoverMutex)
// lean on FASAS — an atomic fetch-and-store that also stores the fetched
// value to a second location — so that "swing tail, learn my predecessor"
// leaves no crash window in which the predecessor is known only to a dead
// register. Go's single-word atomics cannot express FASAS, and no packing
// of (node, epoch, linked-bit) into one uint64 can either: the two words
// involved (the shared tail and the enqueuer's private pred record) belong
// to different owners. This type therefore uses the sanctioned fallback: a
// short locked descriptor. One word (enq) names the port-passage currently
// allowed to move tail; the enqueue (reset next, read tail, record pred,
// store tail), the empty-queue release (verify tail, clear it) and a
// recovering waiter's re-link run under it.
//
// The correctness argument, in full, because the descriptor is what makes
// every crash window O(1)-recoverable:
//
//  1. tail is written only under the descriptor. Hence, while a passage
//     holds it, tail is frozen to everyone else, and "tail == my ref"
//     decides exactly whether my enqueue committed — once my ref is in
//     tail it can only leave under the descriptor I am holding.
//  2. The holder's identity (port and epoch) is the descriptor's value,
//     so a crashed holder is detectable: its replacement finds enq still
//     carrying its own passage's ref and resumes the descriptor section
//     idempotently (every step is a re-runnable store whose completion is
//     observable: pred re-derives from the frozen tail, the phase word
//     records whether the section finished). Other arrivals spin until
//     the orphan is reclaimed — the same stripe-stalls-until-Reclaim
//     liveness model as every other orphan in this package.
//  3. The phase word advances to mcsWait/mcsCS before the descriptor is
//     released, so a passage seen in mcsEnq without holding the
//     descriptor has provably not committed and may restart its enqueue
//     from scratch; one seen in mcsWait/mcsCS has provably committed.
//     There is no ambiguous state, which is what lets recovery decide
//     membership of the queue without walking it.
//  4. The link CAS (pred.next: 0 → my ref) must land in the passage it
//     queued behind, never in a later passage of the same port. A node's
//     next is reset under the descriptor, just before its tail swing, so a
//     new passage cannot clear its node while a descriptor holder is
//     looking. The live path links outside the descriptor: its
//     predecessor cannot grant a successor that has not linked (a release
//     that sees a committed successor waits for the link), so that
//     passage is still running when the CAS lands. A recovery re-link
//     cannot rely on that — its dead episode may already have linked and
//     been granted, and the predecessor may be on to a new passage — so it
//     takes the descriptor, re-checks the grant, and links only while the
//     passage is still ungranted. An ungranted passage's predecessor has
//     not finished, and its next passage cannot reset next or swing tail
//     until the descriptor is free, so the CAS either lands in the right
//     passage or finds the link already made.
//
// The cost of the fallback is one uncontended CAS-acquire/store-release
// pair per enqueue and per empty-queue release, on the arrival path only;
// the contended hand-off path — the part that dominates a loaded stripe —
// is untouched MCS: local spin, one remote CAS plus one wake per passage.
//
// An MCSMutex must be created with NewMCS. Methods are safe for concurrent
// use under the package's port discipline (at most one goroutine per port
// at a time).
type MCSMutex struct {
	ports   int
	strat   wait.Strategy
	nodes   []mcsNode
	crashFn atomic.Pointer[CrashFunc]

	// tail and enq are written several times per passage by arrivals and
	// releasers, while the fields above are read on every step; the pads
	// give the two write-hot words a cache line of their own.
	_ [cacheLineSize - mcsColdSize%cacheLineSize]byte
	// tail is the queue's single shared word: the ref of the last enqueued
	// passage, 0 when empty. Read freely, written only under enq.
	tail atomic.Uint64
	// enq is the locked descriptor (see the type comment): 0 when free,
	// else the ref of the passage currently moving tail.
	enq atomic.Uint64
	_   [cacheLineSize - 2*unsafe.Sizeof(atomic.Uint64{})%cacheLineSize]byte
}

// mcsColdSize is the size of MCSMutex's read-mostly header, the fields
// ahead of the tail pad.
const mcsColdSize = unsafe.Sizeof(int(0)) + unsafe.Sizeof(wait.Strategy(nil)) +
	unsafe.Sizeof([]mcsNode(nil)) + unsafe.Sizeof(atomic.Pointer[CrashFunc]{})

var _ portLock = (*MCSMutex)(nil)

// NewMCS creates a recoverable MCS queue lock with the given number of
// ports (the maximum number of concurrent passages, usually the worker
// count). Options are the same as New's: WithWaitStrategy tunes how
// waiters spin on their nodes. MCS nodes are permanent per-port state, so
// every passage is allocation-free by construction.
func NewMCS(ports int, opts ...Option) *MCSMutex {
	if ports <= 0 {
		panic("rme: NewMCS needs at least one port")
	}
	if ports > mcsMaxPorts {
		panic(fmt.Sprintf("rme: NewMCS supports at most %d ports", mcsMaxPorts))
	}
	cfg := buildConfig(opts)
	return &MCSMutex{
		ports: ports,
		strat: cfg.strat,
		nodes: make([]mcsNode, ports),
	}
}

// Ports returns the number of ports the lock was created with.
func (m *MCSMutex) Ports() int { return m.ports }

func (m *MCSMutex) checkPort(port int) {
	if port < 0 || port >= m.ports {
		panic(fmt.Sprintf("rme: port %d out of range [0,%d)", port, m.ports))
	}
}

// Held reports whether port currently owns the critical section — true
// also for an orphaned passage whose owner died inside it, which is what
// recovery harnesses ask.
func (m *MCSMutex) Held(port int) bool {
	m.checkPort(port)
	return m.nodes[port].word.Load()&mcsPhaseMask == mcsCS
}

// SetCrashFunc installs (or, with nil, removes) the crash-injection hook.
// MCS-specific step labels are "M."-prefixed: M.enq (enqueue announced,
// descriptor not yet taken), M.swap (tail swung under the descriptor,
// phase not yet committed), M.link (enqueue committed, pred.next not yet
// linked), M.wait (linked, spin not yet begun), M.cs (inside the critical
// section, release not yet announced), M.rel (release announced), M.empty
// (tail cleared under the descriptor, phase not yet retired), M.succwait
// (release saw a committed but unlinked successor), M.grant (successor
// known, not yet signalled), M.relink (a recovering waiter holds the
// descriptor and found its passage ungranted, re-link not yet made).
// Abort windows get their own points, hit only when a cancellable acquire
// is abandoned: M.abort.enq (cancelled spinning for the descriptor,
// enqueue uncommitted) and M.abort.wait (cancelled in the grant wait, node
// left linked).
func (m *MCSMutex) SetCrashFunc(fn CrashFunc) {
	if fn == nil {
		m.crashFn.Store(nil)
		return
	}
	m.crashFn.Store(&fn)
}

func (m *MCSMutex) cp(port int, point string) {
	if fn := m.crashFn.Load(); fn != nil {
		if (*fn)(port, point) {
			panic(Crash{Port: port, Point: point})
		}
	}
}

// CrashPoint exposes the injection hook for application-labeled points,
// like Mutex.CrashPoint.
func (m *MCSMutex) CrashPoint(port int, point string) { m.cp(port, point) }

// lockDesc acquires the enqueue descriptor for the passage (port, epoch)
// and reports true, or false if done closed first (a nil done never does).
// A plain test-and-set spin: the descriptor's critical sections are three
// or four stores long, so the wait is momentary unless the holder died —
// in which case the spinner is waiting for a reclaim sweep, exactly as a
// queued waiter behind a dead node is. A false return leaves nothing
// engaged — the CAS never landed — so the caller's enqueue provably never
// committed.
func (m *MCSMutex) lockDesc(port int, epoch uint64, done <-chan struct{}) bool {
	ref := mcsRef(port, epoch)
	for i := 0; !m.enq.CompareAndSwap(0, ref); i++ {
		if done != nil {
			select {
			case <-done:
				return false
			default:
			}
		}
		if i >= 64 {
			runtime.Gosched()
		}
	}
	return true
}

func (m *MCSMutex) unlockDesc() { m.enq.Store(0) }

// Lock is LockDone with a nil done: it acquires the critical section for
// port, waiting as long as it takes.
func (m *MCSMutex) Lock(port int) { m.LockDone(port, nil) }

// LockDone acquires the critical section for port and returns true, or
// returns false if done closed first (a nil done never does). Like
// Mutex.LockDone it doubles as the recovery entry point: called on a port
// whose previous passage crashed, it resumes that passage — wait-free
// return if the dead owner held the critical section, O(1) neighborhood
// repair otherwise — instead of starting a fresh one. Recovery passages are
// not cancellable and return true.
//
// Cancellation of a fresh passage can land in two windows, each left
// exactly as the matching crash:
//
//   - Spinning for the enqueue descriptor: the attempt never engaged the
//     queue. The phase word stays at the uncommitted mcsEnq, and recovery
//     (recoverEnqueue, not holding the descriptor) restarts the enqueue
//     from scratch — the descriptor-holder-death invariants extend to a
//     holder that aborts because an aborting spinner never held it at all.
//   - Waiting for the grant: the passage stays linked in mcsWait (a crash
//     at M.wait), and recovery is the O(1) neighborhood repair. A grant
//     racing the cancellation is taken, not dropped (see awaitGrant).
//
// Either way the port owes the standard recovery Lock (the LockTable's
// abort path runs it from the departing caller) before any fresh passage.
func (m *MCSMutex) LockDone(port int, done <-chan struct{}) bool {
	m.checkPort(port)
	n := &m.nodes[port]
	w := n.word.Load()
	epoch := w >> mcsPhaseBits
	// The enqueue and empty-release sections end with a phase store and
	// then the descriptor release. A crash between those two leaves enq
	// carrying this port's passage ref with the section's work fully
	// committed; free it here so the passage below (and every other port)
	// can proceed. A recovery re-link dies holding it in mcsWait, and is
	// freed the same way: recoverWait re-runs its whole section. A ref
	// found while the phase still reads mid-section (mcsEnq, mcsRel) is not
	// a leak — the section itself is unfinished, and its recovery resumes
	// it while still holding the descriptor.
	if ph := w & mcsPhaseMask; ph != mcsEnq && ph != mcsRel &&
		m.enq.Load() == mcsRef(port, epoch) {
		m.unlockDesc()
	}
	switch w & mcsPhaseMask {
	case mcsIdle:
		return m.acquire(port, epoch+1, done)
	case mcsEnq:
		m.recoverEnqueue(port, epoch)
	case mcsWait:
		m.recoverWait(port, epoch)
	case mcsCS:
		// Died (or re-entered) inside the critical section: wait-free
		// re-entry, the paper's defining recovery guarantee.
	case mcsRel:
		// Died mid-release: finish handing the old passage off, then run a
		// fresh acquisition so Lock returns holding the critical section
		// (the contract ReclaimWith's Lock-then-Unlock loop relies on).
		m.completeRelease(port, epoch)
		m.acquire(port, epoch+1, nil)
	}
	return true
}

// freeHint reports whether an arrival at port would currently acquire
// without queuing: the queue is empty and the enqueue descriptor free.
// Racy — a hint for TryLock, not a reservation.
func (m *MCSMutex) freeHint(int) bool {
	return m.tail.Load() == 0 && m.enq.Load() == 0
}

// acquire runs a fresh passage with the given (new) epoch, cancellable
// through done (nil = wait forever).
func (m *MCSMutex) acquire(port int, epoch uint64, done <-chan struct{}) bool {
	m.nodes[port].word.Store(mcsWord(epoch, mcsEnq))
	m.cp(port, "M.enq")
	if !m.lockDesc(port, epoch, done) {
		// Cancelled spinning for the descriptor: the enqueue never
		// committed (the phase reads mcsEnq, the descriptor was never
		// ours), which is exactly a crash at M.enq.
		m.cp(port, "M.abort.enq")
		return false
	}
	return m.enqCommit(port, epoch, done)
}

// enqCommit runs the descriptor section of an enqueue — record pred, swing
// tail, commit the phase — and then the post-descriptor half of the
// passage, cancellable through done (nil = wait forever). Entered with the
// descriptor held; shared verbatim by the live path and descriptor-holder
// crash recovery because every step is idempotent under the frozen tail
// (see the type comment). The descriptor section itself always runs to
// completion — its steps are momentary stores, and committing the phase
// before releasing the descriptor is what keeps every crash window
// decidable — so cancellation can only land in the post-descriptor grant
// wait.
func (m *MCSMutex) enqCommit(port int, epoch uint64, done <-chan struct{}) bool {
	n := &m.nodes[port]
	ref := mcsRef(port, epoch)
	if m.tail.Load() != ref {
		// Reset the successor link before this passage's ref can reach
		// tail, under the descriptor so a recovering re-linker of the
		// previous passage cannot interleave (invariant 4 on the type).
		n.next.Store(0)
		pred := m.tail.Load()
		n.pred.Store(pred)
		m.tail.Store(ref)
	}
	m.cp(port, "M.swap")
	pred := n.pred.Load()
	if pred == 0 {
		// Empty queue: the passage acquires immediately.
		n.word.Store(mcsWord(epoch, mcsCS))
		m.unlockDesc()
		return true
	}
	n.word.Store(mcsWord(epoch, mcsWait))
	m.unlockDesc()
	m.cp(port, "M.link")
	// The live link needs no descriptor: a predecessor cannot grant a
	// successor that has not linked (invariant 4 on the type).
	m.nodes[mcsRefPort(pred)].next.CompareAndSwap(0, mcsRef(port, epoch))
	return m.awaitGrant(port, epoch, done)
}

// recoverEnqueue resumes a passage that died in mcsEnq. Phase mcsEnq
// commits to mcsWait/mcsCS before the descriptor is released, so the case
// split is exact: holding the descriptor means the tail swing may or may
// not have landed (decidable, because tail is frozen for us); not holding
// it means the enqueue provably never committed and restarts from scratch
// under the same epoch (the ref never became reachable, so the identity is
// still fresh).
func (m *MCSMutex) recoverEnqueue(port int, epoch uint64) {
	if m.enq.Load() == mcsRef(port, epoch) {
		// Died holding the descriptor: resume its section. enqCommit
		// re-derives every intermediate from the frozen tail, so it does
		// not matter which store the dead goroutine got to.
		m.enqCommit(port, epoch, nil)
		return
	}
	// Never committed: restart the enqueue under the same epoch.
	m.acquire(port, epoch, nil)
}

// awaitGrant spins — locally, on this node's cell — until the passage's
// grant arrives, reporting true, or until done closes (nil = wait
// forever). The wait condition is the persistent phase word, so a grant
// delivered while the port was dead is simply observed. A cancelled wait
// leaves the passage linked in mcsWait — precisely a crash at M.wait — and
// the final condition re-check inside the cancelled episode means a grant
// that raced the cancellation is taken, not dropped: the passage ends
// granted or abandoned, never both. The abandoned node's repair is the
// O(1) neighborhood recovery (recoverWait), run by the departing caller's
// fix-up Lock.
func (m *MCSMutex) awaitGrant(port int, epoch uint64, done <-chan struct{}) bool {
	n := &m.nodes[port]
	m.cp(port, "M.wait")
	granted := mcsWord(epoch, mcsCS)
	if n.word.Load() == granted {
		return true
	}
	if n.cell.AwaitDone(m.strat, func() bool { return n.word.Load() == granted }, done) {
		return true
	}
	m.cp(port, "M.abort.wait")
	return false
}

// recoverWait resumes a passage that died in mcsWait: enqueue committed,
// link possibly not yet made, grant possibly delivered to the dead
// episode. Only the O(1) neighborhood is touched — the predecessor's next
// word and this node's own state. The re-link runs under the descriptor
// and only while the passage is still ungranted (invariant 4 on the
// type): a dead episode's link may already have been granted, and a
// predecessor that has moved on to a new passage must not inherit it.
func (m *MCSMutex) recoverWait(port int, epoch uint64) {
	n := &m.nodes[port]
	granted := mcsWord(epoch, mcsCS)
	if n.word.Load() == granted {
		return // granted while dead: wait-free re-entry
	}
	m.lockDesc(port, epoch, nil)
	if n.word.Load() == granted {
		m.unlockDesc()
		return
	}
	m.cp(port, "M.relink")
	// In mcsWait the pred record is committed and non-zero (an empty-queue
	// enqueue goes straight to mcsCS).
	m.nodes[mcsRefPort(n.pred.Load())].next.CompareAndSwap(0, mcsRef(port, epoch))
	m.unlockDesc()
	m.awaitGrant(port, epoch, nil)
}

// Unlock releases the critical section held by port. Like Mutex.Unlock it
// must only be called while port holds the lock (Lock returned, or a
// recovery harness observed Held).
func (m *MCSMutex) Unlock(port int) {
	m.checkPort(port)
	n := &m.nodes[port]
	w := n.word.Load()
	if w&mcsPhaseMask != mcsCS {
		panic(fmt.Sprintf("rme: Unlock of port %d which does not hold the lock", port))
	}
	epoch := w >> mcsPhaseBits
	// M.cs is the died-inside-the-critical-section window (the flat lock's
	// L27 analogue): the release has not been announced, so Held still
	// reports true and a sweep reports inCS to its callback.
	m.cp(port, "M.cs")
	n.word.Store(mcsWord(epoch, mcsRel))
	m.cp(port, "M.rel")
	m.completeRelease(port, epoch)
}

// completeRelease finishes a release from phase mcsRel, from any point a
// previous execution died at. The case analysis (all under "I hold the
// critical section, so my ref is in the queue"):
//
//   - next linked: hand off to the successor. Idempotent — the grant CAS
//     is epoch-guarded, so a re-run after the successor already took (or
//     even finished) the critical section changes nothing.
//   - next unlinked, tail == my ref: no successor committed; clear tail
//     under the descriptor and leave. A crash between the tail store and
//     the phase store re-enters with tail == 0, which is unambiguous: a
//     holder's tail cannot be empty unless its own release emptied it.
//   - next unlinked, tail != my ref and != 0: a successor committed but
//     has not linked yet; wait for the link (its owner is live mid-step,
//     or dead and will be re-linked by its own recovery), then hand off.
func (m *MCSMutex) completeRelease(port int, epoch uint64) {
	n := &m.nodes[port]
	ref := mcsRef(port, epoch)
	// Recovery may find the descriptor still ours from an execution that
	// died inside this very section; resume it rather than re-acquire —
	// and in that case skip the lock-free fast path below, because the
	// descriptor must be the thing released first.
	if m.enq.Load() != ref {
		if succ := n.next.Load(); succ != 0 {
			m.grant(port, epoch, succ)
			return
		}
		m.lockDesc(port, epoch, nil)
	}
	if succ := n.next.Load(); succ != 0 {
		// The successor linked after the fast-path check (or while the
		// crashed execution held the descriptor).
		m.unlockDesc()
		m.grant(port, epoch, succ)
		return
	}
	switch t := m.tail.Load(); t {
	case ref:
		m.tail.Store(0)
		m.cp(port, "M.empty")
		n.word.Store(mcsWord(epoch, mcsIdle))
		m.unlockDesc()
	case 0:
		// A crashed earlier execution already emptied the queue; only the
		// phase store remained.
		n.word.Store(mcsWord(epoch, mcsIdle))
		m.unlockDesc()
	default:
		m.unlockDesc()
		m.cp(port, "M.succwait")
		for n.next.Load() == 0 {
			runtime.Gosched()
		}
		m.grant(port, epoch, n.next.Load())
	}
}

// grant hands the critical section to successor succ and retires this
// passage. The grant is one epoch-guarded CAS (Wait→CS on the successor's
// word) plus one wake; both are safe to re-run — a stale CAS misses (the
// successor's word moved on), a stale wake dies on the cell's generation.
func (m *MCSMutex) grant(port int, epoch, succ uint64) {
	m.cp(port, "M.grant")
	sn := &m.nodes[mcsRefPort(succ)]
	se := mcsRefEpoch(succ)
	sn.word.CompareAndSwap(mcsWord(se, mcsWait), mcsWord(se, mcsCS))
	sn.cell.Wake()
	m.nodes[port].word.Store(mcsWord(epoch, mcsIdle))
}
