package rme

import (
	"fmt"
	"math"
	"sync/atomic"

	"github.com/rmelib/rme/internal/wait"
)

// TreeMutex is the runtime port of the paper's Section 3.3 construction:
// n processes compete on an arbitration tree whose internal nodes are
// k-ported Mutex instances with k = Θ(log n / log log n). It is the
// n-process form of the lock with the paper's headline bound —
// O((1+f)·log n / log log n) RMRs per super-passage — where the flat Mutex
// is the k-ported core.
//
// Unlike Mutex's ports, TreeMutex identities are process indices
// 0..n-1 with a fixed leaf each; the same exclusivity rule applies (one
// live goroutine per identity; a replacement presenting the same identity
// recovers the dead one's passage).
//
// Recovery uses one stable phase word per process (climbing / in CS /
// releasing-with-cursor): see internal/tree for the verified step-machine
// version this is ported from, including why the release cursor is
// necessary (a released node's port may already be claimed by a sibling,
// so the replay must never touch levels above the cursor).
//
// The hot path is arithmetic-free: each process's (node, port) pair per
// level is precomputed at construction into a per-process path table, and
// the per-process phase words are padded to cache lines so neighboring
// processes' passage bookkeeping never ping-pongs a line.
type TreeMutex struct {
	n      int
	arity  int
	levels int
	nodes  [][]*Mutex
	// path[proc][l] is the precomputed (node, port) of proc at level l —
	// the paper's position arithmetic (a division loop per level per
	// acquisition) hoisted to NewTree. Read-only after construction.
	path [][]treeStep
	// phase[proc] is the stable recovery word, one cache line each: every
	// passage writes it twice (tphUp, tphCS) plus once per level on
	// release, which false-shared eight-up before padding.
	phase []paddedInt64
	// levelStats[l] counts wait-engine events inside level l's mutexes;
	// nil unless WithTreeInstrumentation was given.
	levelStats []*wait.Stats
	// crashFn is the tree-level crash hook: the phase-word stores in
	// Unlock/replayRelease are protocol steps of their own, and a crash
	// exactly between them must be injectable just like the node-level
	// steps are (see the T.* points).
	crashFn atomic.Pointer[CrashFunc]
}

// treeStep is one precomputed hop of a process's leaf-to-root path.
type treeStep struct {
	m    *Mutex
	port int
}

// Phase values for TreeMutex's per-process phase word; the release cursor
// lives in the upper bits.
const (
	tphIdle int64 = iota
	tphUp
	tphCS
	tphDown

	tphShift = 4
	tphMask  = (1 << tphShift) - 1
)

// encodeTreeDown packs a release cursor into a tphDown phase word. The
// cursor is stored biased by one — 0 in the cursor bits means "nothing left
// to replay" — so that cursor -1 (a 0-level tree, or a release that has
// finished every level) is distinguishable from cursor 0 (leaf level still
// to release). Storing -1 and 0 both as 0, as an earlier encoding did, made
// a crash between Unlock's tphDown store and its tphIdle store on a
// NewTree(1) replay level 0 of an empty path table (out-of-range panic).
func encodeTreeDown(cursor int) int64 {
	if cursor < 0 {
		cursor = -1
	}
	return tphDown | int64(cursor+1)<<tphShift
}

// decodeTreeDown recovers the release cursor from a tphDown phase word;
// -1 means the replay has nothing to do.
func decodeTreeDown(word int64) int {
	return int(word>>tphShift) - 1
}

// TreeArity returns the paper's node degree for n processes:
// max(2, ⌈log₂ n / log₂ log₂ n⌉).
func TreeArity(n int) int {
	if n <= 4 {
		return 2
	}
	lg := math.Log2(float64(n))
	a := int(math.Ceil(lg / math.Log2(lg)))
	if a < 2 {
		return 2
	}
	return a
}

// NewTree creates an n-process arbitration-tree mutex with the paper's
// default node degree. Options (wait strategy, per-level instrumentation)
// are threaded through to every tree node's Mutex.
func NewTree(n int, opts ...Option) *TreeMutex {
	if n <= 0 {
		panic("rme: NewTree needs at least one process")
	}
	cfg := buildConfig(opts)
	t := &TreeMutex{n: n, arity: TreeArity(n)}
	groups := n
	for groups > 1 {
		groups = (groups + t.arity - 1) / t.arity
		// Pass the caller's options through so future Options reach the
		// node mutexes too; the per-level instrumented strategy is
		// appended last and therefore wins over the caller's.
		nodeOpts := opts
		if cfg.treeStats {
			ls := &wait.Stats{}
			t.levelStats = append(t.levelStats, ls)
			nodeOpts = append(append([]Option{}, opts...),
				WithWaitStrategy(wait.Instrumented(cfg.strat, ls)))
		}
		level := make([]*Mutex, groups)
		for g := range level {
			level[g] = New(t.arity, nodeOpts...)
		}
		t.nodes = append(t.nodes, level)
		t.levels++
	}
	t.phase = make([]paddedInt64, n)
	t.path = make([][]treeStep, n)
	for p := 0; p < n; p++ {
		steps := make([]treeStep, t.levels)
		div := 1
		for l := 0; l < t.levels; l++ {
			steps[l] = treeStep{m: t.nodes[l][p/(div*t.arity)], port: (p / div) % t.arity}
			div *= t.arity
		}
		t.path[p] = steps
	}
	return t
}

// Ports returns n, the number of process identities — the same capacity
// notion as Mutex.Ports, under the same exclusivity rule, so the two lock
// shapes present one identity surface (LockTable's shard backends are
// chosen through exactly this common face).
func (t *TreeMutex) Ports() int { return t.n }

// Levels returns the tree height.
func (t *TreeMutex) Levels() int { return t.levels }

// LevelStats returns the per-level wait-engine counters (index 0 is the
// leaf level), or nil unless the tree was built with
// WithTreeInstrumentation. Wakes per level is the RMR proxy for the
// tree's hand-off cost: the paper's bound says the sum over the path is
// O(log n / log log n) per crash-free super-passage.
//
// The returned slice is a fresh copy on every call — mutating it cannot
// detach the tree's live counter blocks — but its elements point at those
// live counters: reading them observes the tree's ongoing activity, and
// Reset on one zeroes the level for every holder of the pointer.
func (t *TreeMutex) LevelStats() []*WaitStats {
	if t.levelStats == nil {
		return nil
	}
	out := make([]*WaitStats, len(t.levelStats))
	copy(out, t.levelStats)
	return out
}

// SetCrashFunc installs the crash-injection hook on every tree node and on
// the tree's own phase-word steps. Node-level points keep the paper's line
// labels and pass the node-local port (child index); the tree-level points
// ("T.down" after Unlock's cursor publication, "T.cursor" after each
// replay's cursor advance, "T.idle" before the release completes) pass the
// process index.
func (t *TreeMutex) SetCrashFunc(fn CrashFunc) {
	if fn == nil {
		t.crashFn.Store(nil)
	} else {
		t.crashFn.Store(&fn)
	}
	for _, level := range t.nodes {
		for _, m := range level {
			m.SetCrashFunc(fn)
		}
	}
}

// tcp is the tree-level crash point check (the TreeMutex counterpart of
// Mutex.cp).
func (t *TreeMutex) tcp(proc int, point string) {
	if fn := t.crashFn.Load(); fn != nil {
		if (*fn)(proc, point) {
			panic(Crash{Port: proc, Point: point})
		}
	}
}

func (t *TreeMutex) checkProc(proc int) {
	if proc < 0 || proc >= t.n {
		panic(fmt.Sprintf("rme: process %d out of range [0,%d)", proc, t.n))
	}
}

// Held reports whether proc currently owns the outer critical section.
func (t *TreeMutex) Held(proc int) bool {
	t.checkProc(proc)
	return t.phase[proc].Load()&tphMask == tphCS
}

// Lock is LockDone with a nil done: it acquires the outer critical section
// for proc, waiting as long as it takes.
func (t *TreeMutex) Lock(proc int) { t.LockDone(proc, nil) }

// LockDone acquires the outer critical section for proc, performing
// whatever crash recovery the stable phase word dictates, and returns true —
// or returns false if done closed mid-climb (a nil done never does). An
// abandoned climb leaves the phase word at tphUp with every level below the
// cancelled one still held and the cancelled level's node in its
// crashed-at-the-wait state — exactly the state a crash at that point
// leaves, so the standard recovery applies: a Lock on the same identity
// re-climbs (held levels re-enter wait-free, the abandoned level's passage
// resumes), and the following Unlock unwinds the precomputed path top-down
// under the phase-cursor encoding. The LockTable's abort path runs that
// Lock/Unlock pair from the departing caller. Recovery passages (a phase
// word found mid-passage) are not cancellable and return true.
func (t *TreeMutex) LockDone(proc int, done <-chan struct{}) bool {
	t.checkProc(proc)
	switch word := t.phase[proc].Load(); word & tphMask {
	case tphCS:
		return true // crashed in the CS: every level is still held
	case tphUp:
		done = nil // interrupted climb: re-climb to completion
	case tphDown:
		// Crashed mid-release: replay from the cursor, then climb afresh.
		t.replayRelease(proc, decodeTreeDown(word))
	}
	t.phase[proc].Store(tphUp)
	for _, s := range t.path[proc] {
		if !s.m.LockDone(s.port, done) {
			t.tcp(proc, "T.abort")
			return false
		}
	}
	t.phase[proc].Store(tphCS)
	return true
}

// freeHint reports whether an arrival by proc would currently climb its
// whole path without queuing: true iff every level's node on the path has
// its tail exit signal set. Racy — a hint for TryLock, not a reservation.
func (t *TreeMutex) freeHint(proc int) bool {
	for _, s := range t.path[proc] {
		if !s.m.freeHint(s.port) {
			return false
		}
	}
	return true
}

// Unlock releases the outer critical section (wait-free). A crash part-way
// through is completed by the next Lock on the same identity.
func (t *TreeMutex) Unlock(proc int) {
	t.checkProc(proc)
	if t.phase[proc].Load()&tphMask != tphCS {
		panic(fmt.Sprintf("rme: Unlock of process %d which does not hold the tree lock", proc))
	}
	t.phase[proc].Store(encodeTreeDown(t.levels - 1))
	t.tcp(proc, "T.down")
	t.replayRelease(proc, t.levels-1)
	t.tcp(proc, "T.idle")
	t.phase[proc].Store(tphIdle)
}

// replayRelease releases levels cursor..0 (top-down) with the idempotent
// per-node exit recovery, advancing the stable cursor between levels. A
// cursor below zero means the release already passed the leaf level and
// there is nothing to replay.
func (t *TreeMutex) replayRelease(proc, cursor int) {
	path := t.path[proc]
	for l := cursor; l >= 0; l-- {
		path[l].m.exitRecover(path[l].port)
		if l > 0 {
			t.phase[proc].Store(encodeTreeDown(l - 1))
			t.tcp(proc, "T.cursor")
		}
	}
}

// exitRecover completes a possibly interrupted Exit of port without
// starting a new passage (idempotent; used by the tree's release replay).
// It mirrors internal/core's BeginExitRecover.
func (m *Mutex) exitRecover(port int) {
	m.cp(port, "X.read")
	n := m.node[port].Load()
	if n == nil {
		return // exit already complete
	}
	switch n.pred.Load() {
	case m.incsN:
		m.cp(port, "L27")
		n.pred.Store(m.exitN)
	case m.exitN:
		// fall through to lines 28–29
	default:
		panic("rme: exit recovery on a node that never reached the CS")
	}
	m.cp(port, "L28")
	n.cs.set()
	m.cp(port, "L29")
	m.node[port].Store(nil)
	m.pushFree(port, n)
}
