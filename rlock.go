package rme

import (
	"sync/atomic"
	"unsafe"

	"github.com/rmelib/rme/internal/wait"
)

// rlock is the runtime port of internal/rlock: the k-ported recoverable
// tournament lock that serializes queue repairs (the paper's RLock). See
// the package documentation of internal/rlock for the design and the
// model-checking evidence; this file is a mechanical translation of the
// verified step machine onto sync/atomic, with all waiting delegated to
// the internal/wait engine.
//
// Per-port NVRAM state is the stage word; everything else a process needs
// is reconstructed by re-running the protocol, whose entry is made
// re-executable by the entry-wake + re-check discipline and whose exit is
// idempotent via conditional clears replayed top-down.
type rlock struct {
	ports  int
	levels int
	// nodes[l][g]: tournament node g at level l.
	nodes [][]rlockNode
	// spinPub[p][l]: port p's publication cell at level l, owning the
	// reusable generation-stamped spin word for that (port, level) slot.
	spinPub [][]wait.Cell
	// stage[p]: per-port recovery stage, one cache line each.
	stage []paddedInt32
	// strat is the wait strategy shared with the owning Mutex.
	strat wait.Strategy
}

// rlockNode is one Peterson tournament node. Both fields are stormed by the
// two subtree rivals, so each node gets its own cache line (and padding
// against the adjacent-line prefetcher) to keep rival pairs from false
// sharing with their neighbors in the level array.
type rlockNode struct {
	flag [2]atomic.Int32 // claimant port + 1, or 0
	turn atomic.Int32    // side that must yield (Peterson)
	_    [cacheLineSize - (unsafe.Sizeof([2]atomic.Int32{})+unsafe.Sizeof(atomic.Int32{}))%cacheLineSize]byte
}

// Stage values (same meaning as internal/rlock).
const (
	rlIdle int32 = iota
	rlTrying
	rlInCS
	rlExiting
)

func newRLock(ports int, strat wait.Strategy) *rlock {
	levels := 0
	for 1<<levels < ports {
		levels++
	}
	l := &rlock{ports: ports, levels: levels, strat: strat}
	l.nodes = make([][]rlockNode, levels)
	for lvl := 0; lvl < levels; lvl++ {
		l.nodes[lvl] = make([]rlockNode, 1<<(levels-lvl-1))
	}
	l.spinPub = make([][]wait.Cell, ports)
	for p := range l.spinPub {
		l.spinPub[p] = make([]wait.Cell, levels)
	}
	l.stage = make([]paddedInt32, ports)
	return l
}

func (l *rlock) node(port, lvl int) *rlockNode {
	return &l.nodes[lvl][port>>(lvl+1)]
}

func side(port, lvl int) int { return (port >> lvl) & 1 }

// lock acquires the repair lock through port, recovering per the stage
// word. m supplies the crash-injection hook.
func (l *rlock) lock(m *Mutex, port int) {
	m.cp(port, "R.stage")
	switch l.stage[port].Load() {
	case rlInCS:
		return // wait-free CSR: we crashed holding the repair lock
	case rlExiting:
		l.replayExit(m, port) // finish the interrupted release, then climb
	}
	m.cp(port, "R.trying")
	l.stage[port].Store(rlTrying)
	for lvl := 0; lvl < l.levels; lvl++ {
		l.entry(m, port, lvl)
	}
	m.cp(port, "R.incs")
	l.stage[port].Store(rlInCS)
}

// unlock releases the repair lock (wait-free).
func (l *rlock) unlock(m *Mutex, port int) {
	m.cp(port, "R.exiting")
	l.stage[port].Store(rlExiting)
	l.replayExit(m, port)
	m.cp(port, "R.idle")
	l.stage[port].Store(rlIdle)
}

// entry wins one tournament node: Peterson with a published local spin
// word, an entry wake for possibly-stale rivals, and a re-check after every
// wake (which is what makes blind re-execution after a crash safe — a
// crash abandons the published episode, whose stale generation makes
// wait.Cell lose wakes aimed at it).
//
// The episode is opened lazily, only once the first Peterson check loses:
// the uncontended path (no rival flag, or the rival must yield) touches
// nothing but the tournament node. A wake the rival issued before our
// Begin is lost with the old generation, but any such wake's cause — the
// rival's flag clear or turn hand-over — precedes the Begin too, so the
// mandatory post-Begin re-check observes it before we ever sleep.
func (l *rlock) entry(m *Mutex, port, lvl int) {
	n := l.node(port, lvl)
	s := side(port, lvl)
	m.cp(port, "R.e0")
	n.flag[s].Store(int32(port + 1))
	m.cp(port, "R.e1")
	n.turn.Store(int32(1 - s))
	var w *wait.Waiter
	for {
		m.cp(port, "R.e3")
		r := n.flag[1-s].Load()
		if r == 0 {
			return
		}
		if n.turn.Load() != int32(1-s) {
			return
		}
		if w == nil {
			// First lost check: open the episode, then loop to re-check
			// before sleeping so a rival state change that raced ahead of
			// the Begin is never a lost wake.
			m.cp(port, "R.e2")
			w = l.spinPub[port][lvl].Begin(l.strat)
			continue
		}
		// About to wait: the rival has priority; wake it in case it was
		// left spinning by an earlier crash of ours (it re-checks, so a
		// spurious wake is harmless).
		m.cp(port, "R.e5")
		l.spinPub[r-1][lvl].Wake()
		l.strat.Sleep(w, nil)
		w.Consume() // consume the wake, then re-check
	}
}

// replayExit releases the held nodes from the root downward. The
// conditional clear makes it idempotent, and the top-down order makes the
// conditional race-free (a same-side successor cannot reach level l while
// the levels below are still held).
func (l *rlock) replayExit(m *Mutex, port int) {
	for lvl := l.levels - 1; lvl >= 0; lvl-- {
		n := l.node(port, lvl)
		s := side(port, lvl)
		m.cp(port, "R.x0")
		if n.flag[s].Load() != int32(port+1) {
			continue // already released before the crash being replayed
		}
		m.cp(port, "R.x1")
		n.flag[s].Store(0)
		m.cp(port, "R.x2")
		r := n.flag[1-s].Load()
		if r == 0 {
			continue
		}
		m.cp(port, "R.x4")
		l.spinPub[r-1][lvl].Wake()
	}
}
