package rme

import (
	"fmt"
	"sync/atomic"
	"unsafe"

	"github.com/rmelib/rme/internal/wait"
)

// qnode is a queue node (the paper's QNode): one per passage, holding the
// predecessor pointer and the two hand-off signals. Each signal's cell owns
// a reusable generation-stamped spin word (internal/wait), so waiting on a
// node never allocates. With pooling enabled the node itself is recycled
// for a later passage of the same port once its successor has consumed cs
// (see consumed), making the whole crash-free passage — contended or not —
// allocation-free.
type qnode struct {
	pred   atomic.Pointer[qnode]
	nonNil signal // set once pred is non-nil (used by repairs)
	cs     signal // set when the owner leaves the CS (releases the successor)

	// consumed is set by the node's unique successor right after it
	// overwrites its own pred pointer with the InCS sentinel: from that
	// point no live protocol path leads to this node (the successor never
	// revisits it, Tail moved past it when the successor appeared, and the
	// owner's port-table slot was cleared at exit), so the owner may
	// recycle it for a fresh passage.
	consumed atomic.Bool
}

// poolCap is the per-port free-list capacity. Crash-free steady state
// oscillates between one and two retired nodes per port; the slack absorbs
// retire/consume skew before the pool starts leaking nodes to the GC.
const poolCap = 4

// portFree is a port's node free list. Only the port's (single, by the
// port discipline) goroutine touches it, so the fields need no atomics;
// the padding keeps neighboring ports' lists off each other's cache lines.
type portFree struct {
	nodes [poolCap]*qnode
	n     int
	_     [cacheLineSize - (unsafe.Sizeof([poolCap]*qnode{})+unsafe.Sizeof(int(0)))%cacheLineSize]byte
}

// Mutex is a k-ported recoverable mutual-exclusion lock: the runtime port
// of the paper's Figures 3–4 algorithm. All shared state lives on the heap
// owned by the Mutex (the stand-in for non-volatile memory); goroutines
// participating in the protocol keep no state of their own that matters,
// so any of them can be replaced after a crash by calling Lock on the same
// port.
//
// A Mutex must be created with New. Methods are safe for concurrent use,
// under the port discipline documented in the package comment.
type Mutex struct {
	ports int
	strat wait.Strategy
	pool  bool

	// Sentinels (Figure 3): distinct nodes whose Pred points to themselves;
	// special is the pre-completed node the first queue entry hangs off.
	crashN, incsN, exitN, specialN *qnode

	tail    atomic.Pointer[qnode]
	node    []paddedQnodePtr
	rl      *rlock
	crashFn atomic.Pointer[CrashFunc]

	free []portFree

	// repairStarts/repairEnds fence node recycling against queue repairs:
	// starts is bumped by a repairer after winning the repair lock and
	// before scanning the port table, ends is set back to starts when its
	// repair section completes (both while still holding the repair lock,
	// so they are totally ordered). A free-list pop refuses to recycle
	// unless starts == ends — i.e. no repair is mid-flight whose private
	// scan snapshot could still reference the retired node. A repair that
	// begins after the pop's check can only find the node through live
	// pointers, which the consumed protocol already guarantees are gone.
	repairStarts atomic.Uint64
	repairEnds   atomic.Uint64

	// scratch holds the fragment-graph containers for repair, reused
	// across repairs; repair runs inside the repair lock's CS, so a single
	// set per Mutex suffices. Cleared at the start of every repair (not
	// the end) so a crash mid-repair cannot leave the next repair reading
	// a predecessor's leftovers.
	scratch repairScratch
}

// New creates a recoverable mutex with the given number of ports (the
// maximum number of concurrent super-passages, usually the worker count).
func New(ports int, opts ...Option) *Mutex {
	if ports <= 0 {
		panic("rme: New needs at least one port")
	}
	cfg := buildConfig(opts)
	m := &Mutex{
		ports:    ports,
		strat:    cfg.strat,
		pool:     cfg.pool,
		crashN:   new(qnode),
		incsN:    new(qnode),
		exitN:    new(qnode),
		specialN: new(qnode),
		node:     make([]paddedQnodePtr, ports),
		free:     make([]portFree, ports),
		scratch:  newRepairScratch(ports),
	}
	m.rl = newRLock(ports, cfg.strat)
	m.crashN.pred.Store(m.crashN)
	m.incsN.pred.Store(m.incsN)
	m.exitN.pred.Store(m.exitN)
	m.specialN.pred.Store(m.exitN)
	m.specialN.nonNil.forceSet()
	m.specialN.cs.forceSet()
	m.tail.Store(m.specialN)
	return m
}

// Ports returns the number of ports the mutex was created with.
func (m *Mutex) Ports() int { return m.ports }

func (m *Mutex) checkPort(port int) {
	if port < 0 || port >= m.ports {
		panic(fmt.Sprintf("rme: port %d out of range [0,%d)", port, m.ports))
	}
}

func (m *Mutex) isSentinel(n *qnode) bool {
	return n == m.crashN || n == m.incsN || n == m.exitN
}

// Held reports whether port currently owns the critical section. It is
// intended for recovery harnesses deciding whether a crashed worker died
// inside its critical section (in which case the replacement's Lock call
// returns immediately and application-level redo/undo may be needed).
func (m *Mutex) Held(port int) bool {
	m.checkPort(port)
	n := m.node[port].Load()
	return n != nil && n.pred.Load() == m.incsN
}

// getNode supplies the node for a fresh passage: recycled from the port's
// free list when pooling is on and a retired node is provably reusable,
// freshly allocated otherwise.
func (m *Mutex) getNode(port int) *qnode {
	if m.pool {
		if n := m.popFree(port); n != nil {
			return n
		}
	}
	return new(qnode)
}

// popFree returns a reusable retired node of port, or nil. Reuse is safe
// only when (a) the node's successor has consumed it and (b) no queue
// repair is in flight whose scan snapshot predates the consumption (see
// repairStarts/repairEnds). Unusable entries stay listed — they may
// become usable once the consumer or repairer finishes.
//
// The check order is load-bearing: consumed MUST be read before the
// fence. A repairer that captured a stale pred-edge to n scanned it
// before the successor's overwrite, hence (program order) its
// repairStarts.Add also precedes the overwrite, which precedes the
// consumed store this pop observed — so by the time the fence loads run,
// that repair is visible in repairStarts and, if still undecided, in
// starts != ends. Fence-first reverses that chain: a repair can begin
// between the fence loads and the consumed load, scan the successor's
// pred just before the overwrite lands, and still satisfy every check —
// leaving it holding the node in its fragment graph while we recycle it.
func (m *Mutex) popFree(port int) *qnode {
	f := &m.free[port]
	for i := 0; i < f.n; i++ {
		n := f.nodes[i]
		if !n.consumed.Load() {
			continue
		}
		starts := m.repairStarts.Load()
		if m.repairEnds.Load() != starts {
			return nil
		}
		// Unlist before touching the node: a crash between here and the
		// publication at L12 merely leaks the node to the GC.
		f.n--
		f.nodes[i] = f.nodes[f.n]
		f.nodes[f.n] = nil
		n.recycle()
		return n
	}
	return nil
}

// pushFree retires a node whose exit completed (line 29). If the list is
// full the oldest entry is dropped for the GC to collect.
func (m *Mutex) pushFree(port int, n *qnode) {
	if !m.pool {
		return
	}
	f := &m.free[port]
	if f.n == poolCap {
		copy(f.nodes[:], f.nodes[1:])
		f.n--
	}
	f.nodes[f.n] = n
	f.n++
}

// recycle returns a consumed node to its zero state for a fresh passage.
// The node is unreachable from the protocol here (successor consumed it,
// the port-table slot was cleared, Tail moved past it), so these stores
// cannot race live readers; the port-table publication at line 12 is what
// re-releases the node to the world.
func (n *qnode) recycle() {
	n.pred.Store(nil)
	n.nonNil.reset()
	n.cs.reset()
	n.consumed.Store(false)
}

// Lock is LockDone with a nil done: it acquires the critical section
// through port, waiting as long as it takes.
func (m *Mutex) Lock(port int) { m.LockDone(port, nil) }

// LockDone acquires the critical section through port (the paper's Try
// section, lines 10–26) and returns true, or returns false if done closed
// while the passage was still queued (a nil done never does). If the
// port's previous passage was interrupted by a crash, LockDone performs the
// recovery: wait-free re-entry if the crash was inside the CS, queue repair
// if it broke the queue, completion of an interrupted Unlock otherwise.
// Recovery passages are not cancellable — a port whose previous passage
// crashed runs that recovery to completion and returns true.
//
// An abandoned attempt leaves the port exactly as if its goroutine had
// crashed at the queue wait (the node stays linked, its predecessor edge
// intact — the paper's crash-at-line-25 state), and the port owes the
// standard recovery before any fresh passage: a Lock on the same port
// resumes the abandoned passage, acquires, and a following Unlock releases
// it. That cooperative crash-and-repair is the whole abort design (the
// LockTable's abort path runs exactly that from the departing caller);
// until it runs, successors queued behind the node wait just as they wait
// behind any crashed port.
//
// A wake that races the cancellation counts as acquired: the predecessor's
// exit signal is re-checked after a cancelled sleep, and a hand-off that
// landed returns true, so a passage is granted or abandoned, never both.
func (m *Mutex) LockDone(port int, done <-chan struct{}) bool {
	m.checkPort(port)
	for {
		m.cp(port, "L10")
		n := m.node[port].Load()
		var pred *qnode
		if n == nil {
			// Fresh passage: enqueue with one FAS.
			m.cp(port, "L11")
			n = m.getNode(port)
			m.cp(port, "L12")
			m.node[port].Store(n)
			m.cp(port, "L13")
			pred = m.tail.Swap(n)
			m.cp(port, "L14")
			n.pred.Store(pred)
			m.cp(port, "L15")
			n.nonNil.set()
		} else {
			// Recovery (lines 17–24), never cancelled.
			done = nil
			m.cp(port, "L18")
			if n.pred.Load() == nil {
				n.pred.Store(m.crashN)
			}
			m.cp(port, "L19")
			pred = n.pred.Load()
			switch pred {
			case m.incsN: // line 20: crashed inside the CS
				return true
			case m.exitN: // lines 21–22: finish the interrupted exit, retry
				m.cp(port, "L28")
				n.cs.set()
				m.cp(port, "L29")
				m.node[port].Store(nil)
				m.pushFree(port, n)
				continue
			}
			m.cp(port, "L23")
			n.nonNil.set()
			m.cp(port, "L24")
			m.rl.lock(m, port)
			seq := m.repairStarts.Add(1)
			pred = m.repair(port, n, pred)
			m.repairEnds.Store(seq)
			m.rl.unlock(m, port)
		}
		m.cp(port, "L25")
		if !pred.cs.wait(m.strat, done) {
			m.cp(port, "A.wait")
			return false
		}
		m.cp(port, "L26")
		n.pred.Store(m.incsN)
		pred.consumed.Store(true)
		return true
	}
}

// freeHint reports whether an arrival at port would currently acquire
// without queuing behind a live passage: true iff the tail node's exit
// signal is already set, so a fresh enqueue's hand-off wait is immediate.
// Racy by nature — a hint, not a reservation; TryLock callers that act on a
// stale true fall into the abort path.
func (m *Mutex) freeHint(int) bool {
	return m.tail.Load().cs.isSet()
}

// Unlock releases the critical section (the paper's wait-free Exit,
// lines 27–29). If the calling goroutine crashes part-way through, the
// port's next Lock call completes the release before acquiring again.
func (m *Mutex) Unlock(port int) {
	m.checkPort(port)
	n := m.node[port].Load()
	if n == nil || n.pred.Load() != m.incsN {
		panic(fmt.Sprintf("rme: Unlock of port %d which does not hold the lock", port))
	}
	m.cp(port, "L27")
	n.pred.Store(m.exitN)
	m.cp(port, "L28")
	n.cs.set()
	m.cp(port, "L29")
	m.node[port].Store(nil)
	m.pushFree(port, n)
}

// repairScratch holds the fragment-graph containers repair needs, pre-sized
// to the port count and reused across repairs. Repairs are serialized by
// the repair lock, so one scratch per Mutex is enough; every use clears
// the containers first, which also makes a crash mid-repair harmless.
type repairScratch struct {
	vertices map[*qnode]struct{}
	out      map[*qnode]*qnode
	indeg    map[*qnode]int
	paths    [][]*qnode
}

func newRepairScratch(ports int) repairScratch {
	// Each of the k scanned nodes contributes itself and at most one
	// predecessor, so 2k bounds every container.
	return repairScratch{
		vertices: make(map[*qnode]struct{}, 2*ports),
		out:      make(map[*qnode]*qnode, 2*ports),
		indeg:    make(map[*qnode]int, 2*ports),
		paths:    make([][]*qnode, 0, 2*ports),
	}
}

func (sc *repairScratch) reset() {
	clear(sc.vertices)
	clear(sc.out)
	clear(sc.indeg)
	sc.paths = sc.paths[:0]
}

// maximalPaths computes the maximal paths of the fragment graph (line 39).
// In every reachable state the graph is a union of disjoint simple paths
// (the paper's invariant C23), so indegree-zero starts cover all vertices.
// The vertex map's iteration order only permutes the order of the returned
// paths; since the paths partition the vertices, nothing downstream can
// depend on it (see the uniqueness notes in repair).
func (sc *repairScratch) maximalPaths() [][]*qnode {
	for _, v := range sc.out {
		sc.indeg[v]++
	}
	for v := range sc.vertices {
		if sc.indeg[v] != 0 {
			continue
		}
		p := []*qnode{v}
		for cur := v; ; {
			next, ok := sc.out[cur]
			if !ok {
				break
			}
			p = append(p, next)
			cur = next
		}
		sc.paths = append(sc.paths, p)
	}
	return sc.paths
}

// repair is the critical section of RLock (Figure 4, lines 30–49): scan
// the port table, model the broken queue as a graph, and re-attach this
// port's fragment — by a fresh FAS on Tail if the tail fragment already
// reaches the CS, by adopting the head fragment's start otherwise, or by
// adopting the SpecialNode when the whole queue is down.
//
// The fragment graph lives in map containers, but no outcome depends on
// their iteration order: the paths are vertex-disjoint (invariant C23), so
// mynode and the scanned Tail value each lie in exactly one path, and at
// most one path can qualify as the head fragment — it must reach the CS at
// its old end (last node's pred ∈ {InCS, Exit}) without having exited at
// its new end (first node's pred ≠ Exit), and the queue invariants admit
// only one such fragment. First-match or last-match, the loops below pick
// the same paths on every iteration order.
func (m *Mutex) repair(port int, mynode, mypred *qnode) *qnode {
	m.cp(port, "L30")
	if mypred != m.crashN {
		return mypred // already queued before the crash: nothing to fix
	}
	m.cp(port, "L31")
	tail := m.tail.Load()
	sc := &m.scratch
	sc.reset()
	for i := 0; i < m.ports; i++ {
		m.cp(port, "L33")
		cur := m.node[i].Load()
		if cur == nil {
			continue
		}
		m.cp(port, "L35")
		cur.nonNil.wait(m.strat, nil)
		m.cp(port, "L36")
		curpred := cur.pred.Load()
		if m.isSentinel(curpred) {
			sc.vertices[cur] = struct{}{}
		} else {
			sc.vertices[cur] = struct{}{}
			sc.vertices[curpred] = struct{}{}
			sc.out[cur] = curpred
		}
	}
	paths := sc.maximalPaths()

	var mypath, tailpath, headpath []*qnode
	for _, sigma := range paths {
		if contains(sigma, mynode) {
			mypath = sigma
			break
		}
	}
	if mypath == nil {
		panic("rme: repairing node not in any fragment (corrupted state)")
	}
	if _, ok := sc.vertices[tail]; ok {
		for _, sigma := range paths {
			if contains(sigma, tail) {
				tailpath = sigma
				break
			}
		}
	}
	for _, sigma := range paths { // lines 42–45
		m.cp(port, "L43")
		endPred := sigma[len(sigma)-1].pred.Load()
		if endPred != m.incsN && endPred != m.exitN {
			continue
		}
		m.cp(port, "L44")
		if sigma[0].pred.Load() != m.exitN {
			headpath = sigma
		}
	}

	// Line 46: is the queue already partially repaired at the tail?
	useFAS := tailpath == nil
	if !useFAS {
		m.cp(port, "L46")
		ep := tailpath[len(tailpath)-1].pred.Load()
		useFAS = ep == m.incsN || ep == m.exitN
	}
	switch {
	case useFAS:
		m.cp(port, "L47")
		mypred = m.tail.Swap(mypath[0])
	case headpath != nil: // line 48
		mypred = headpath[0]
	default: // line 48: the whole queue is down
		mypred = m.specialN
	}
	m.cp(port, "L49")
	mynode.pred.Store(mypred)
	return mypred
}

func contains(path []*qnode, n *qnode) bool {
	for _, x := range path {
		if x == n {
			return true
		}
	}
	return false
}
