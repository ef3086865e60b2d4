package rme

import (
	"sync"
	"sync/atomic"
	"time"

	"github.com/rmelib/rme/internal/xrand"
)

// This file is the table's supervisor: the background goroutine started by
// WithSupervisor, which sweeps orphaned tenancies so a supervised table
// needs no caller-driven Reclaim pattern. A crashed worker, a
// cancelled-but-granted async request, or an abandoned Grant all leave an
// orphaned lease that stalls its stripe until someone reclaims it; the
// supervisor sweeps periodically under a liveness budget (at most
// MaxHealsPerTick stripes claimed per tick, recoveries on their own
// goroutines). It runs off the grant path, and its steady-state tick
// performs no allocation, so a supervised table's warm passages cost what
// an unsupervised table's do.
//
// Each stripe's lock shape and port count are fixed at construction; the
// supervisor never changes them. It needs nothing from the dispatcher
// runtime (dispatch.go) either: an abandoned grant becomes an ordinary
// orphan whose recovery is driven entirely by sweeps, so a fully-blocked
// pool can never stall reclaim, and the eager first tick a restored table
// asks for (see supervisor.eager) runs before any pool worker has even
// spawned.

// SupervisorConfig tunes the background supervisor a LockTable starts
// when built WithSupervisor. The zero value is valid and selects the
// default cadence and budget.
type SupervisorConfig struct {
	// Interval is the tick period. Each tick is scheduled with ±25%
	// jitter around it so many supervised tables in one process do not
	// beat against each other. <= 0 selects the 5ms default.
	Interval time.Duration

	// MaxHealsPerTick bounds how many stripes one tick claims orphans
	// from — the sweep's liveness budget, keeping a crash storm from
	// turning a tick into a full-table stall. Claimed recoveries run on
	// their own goroutines, and the claim cursor rotates round-robin so
	// every stripe is reached within shards/MaxHealsPerTick ticks.
	// <= 0 selects the default (4).
	MaxHealsPerTick int
}

// supervisor defaults; see the corresponding SupervisorConfig fields.
const (
	defaultSupInterval = 5 * time.Millisecond
	defaultSupHeals    = 4
	supJitterQuarter   = 4 // jitter amplitude: interval/4 each way
)

func (c SupervisorConfig) withDefaults() SupervisorConfig {
	if c.Interval <= 0 {
		c.Interval = defaultSupInterval
	}
	if c.MaxHealsPerTick <= 0 {
		c.MaxHealsPerTick = defaultSupHeals
	}
	return c
}

// SupervisorStats is the supervisor's own activity snapshot, reported
// inside TableStats. Every field is zero on a table without
// WithSupervisor.
type SupervisorStats struct {
	// Sweeps counts supervisor ticks (each tick is one budgeted sweep
	// pass, whether or not it found anything to heal).
	Sweeps uint64
	// StripesHealed / PortsHealed count orphan recoveries the supervisor
	// initiated: stripes with at least one claim, and individual ports.
	StripesHealed uint64
	PortsHealed   uint64
}

// supervisor is the background sweep loop attached by WithSupervisor.
// Its claim scratch is preallocated at start, so a steady-state tick
// (nothing to heal) allocates nothing.
type supervisor struct {
	t   *LockTable
	cfg SupervisorConfig

	stop     chan struct{}
	done     chan struct{}
	stopOnce sync.Once
	// wg tracks the heal goroutines this supervisor spawned; join waits
	// for them so Close never returns with a recovery still in flight.
	wg sync.WaitGroup

	rng *xrand.Rand

	healCursor int
	claimBuf   []PortLease // claim-phase scratch, reused every tick

	// eager makes run perform an immediate first tick before arming the
	// interval timer. RestoreTable sets it when the restored image carried
	// orphans: a system-wide crash leaves every in-flight tenancy of the
	// dead incarnation orphaned at once, and a supervised restore should
	// start healing them right away rather than sleeping a full Interval
	// while the whole arena is stalled behind dead holders.
	eager bool

	sweeps        atomic.Uint64
	stripesHealed atomic.Uint64
	portsHealed   atomic.Uint64
}

// startSupervisor wires the supervisor into the table and launches its
// loop; called from finishInit when WithSupervisor was given. With eager
// set the loop runs its first tick immediately (the restore path's
// sweep-before-first-grant; see supervisor.eager).
func (t *LockTable) startSupervisor(cfg SupervisorConfig, eager bool) {
	s := &supervisor{
		t:        t,
		cfg:      cfg.withDefaults(),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
		rng:      xrand.New(t.seed ^ 0xa5a5a5a5a5a5a5a5),
		claimBuf: make([]PortLease, 0, t.ports),
		eager:    eager,
	}
	t.sup = s
	go s.run()
}

// supervisorStats snapshots the supervisor's counters (zero without one).
func (t *LockTable) supervisorStats() SupervisorStats {
	s := t.sup
	if s == nil {
		return SupervisorStats{}
	}
	return SupervisorStats{
		Sweeps:        s.sweeps.Load(),
		StripesHealed: s.stripesHealed.Load(),
		PortsHealed:   s.portsHealed.Load(),
	}
}

// join stops the loop and waits for it — and for every heal goroutine it
// spawned — to finish. Idempotent; called from Close.
func (s *supervisor) join() {
	s.stopOnce.Do(func() { close(s.stop) })
	<-s.done
	s.wg.Wait()
}

// run is the supervisor goroutine: tick, re-arm with jitter.
func (s *supervisor) run() {
	defer close(s.done)
	if s.eager {
		s.tick()
	}
	timer := time.NewTimer(s.jittered())
	defer timer.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-timer.C:
		}
		s.tick()
		timer.Reset(s.jittered())
	}
}

// jittered returns the next tick delay: Interval ±25%.
func (s *supervisor) jittered() time.Duration {
	base := s.cfg.Interval
	amp := base / supJitterQuarter
	if amp <= 0 {
		return base
	}
	return base - amp + time.Duration(s.rng.Uint64()%uint64(2*amp))
}

// tick is one supervision pass: a budgeted orphan sweep. Steady state
// (nothing to heal) performs no allocation and no locking — only atomic
// loads over the stripes' lease words.
func (s *supervisor) tick() {
	s.sweeps.Add(1)
	s.sweepOrphans()
}

// sweepOrphans claims orphans from at most MaxHealsPerTick stripes
// (round-robin from the rotating cursor) and spawns one recovery
// goroutine per claimed port. Recoveries run concurrently and are never
// waited for inside the tick — two orphans can be queued behind each
// other's dead nodes, and a batch tenancy's stripes can depend on each
// other through live waiters, so a sweep that blocked on one recovery
// could stall the very heals that would unblock it. Stripes beyond the
// budget keep their orphans for the next tick; the cursor guarantees
// every stripe is visited.
func (s *supervisor) sweepOrphans() {
	t := s.t
	n := len(t.shards)
	healed, scanned := 0, 0
	for i := 0; i < n && healed < s.cfg.MaxHealsPerTick; i++ {
		sh := &t.shards[(s.healCursor+i)%n]
		scanned = i + 1
		s.claimBuf = sh.pool.claimOrphans(s.claimBuf[:0])
		if len(s.claimBuf) == 0 {
			continue
		}
		healed++
		s.stripesHealed.Add(1)
		s.portsHealed.Add(uint64(len(s.claimBuf)))
		for _, l := range s.claimBuf {
			s.wg.Add(1)
			go s.heal(sh, l)
		}
	}
	if healed >= s.cfg.MaxHealsPerTick {
		// The budget cut the scan short: rotate the cursor past the
		// visited region so a persistently crashy prefix cannot starve
		// the stripes behind it; a full scan leaves the cursor alone.
		s.healCursor = (s.healCursor + scanned) % n
	}
}

// heal runs one claimed orphan's recovery to completion — the same
// Lock/Unlock recovery loop ReclaimWith runs, absorbing injected crashes
// — and returns the port to the pool.
func (s *supervisor) heal(sh *lockShard, l PortLease) {
	defer s.wg.Done()
	sh.recoverPort(l.Port)
	sh.pool.finishReclaim(l)
}
