package rme

import (
	"sync/atomic"
	"time"

	"github.com/rmelib/rme/internal/xrand"
)

// This file is the table's supervisor: the background goroutine started by
// WithSupervisor, which sweeps orphaned tenancies so a supervised table
// needs no caller-driven Reclaim pattern. A crashed worker, a
// cancelled-but-granted async request, or an abandoned Grant all leave an
// orphaned lease that stalls its stripe until someone reclaims it; each
// supervisor tick is one Reclaim, the same two-phase sweep a caller would
// run (claim every orphan, heal them in parallel, re-claim late orphans
// while heals are pending). It runs off the grant path, and a tick that
// finds nothing to heal performs no allocation, so a supervised table's
// warm passages cost what an unsupervised table's do.
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
// default cadence.
type SupervisorConfig struct {
	// Interval is the tick period. Each tick is scheduled with ±25%
	// jitter around it so many supervised tables in one process do not
	// beat against each other. <= 0 selects the 5ms default.
	Interval time.Duration
}

const (
	defaultSupInterval = 5 * time.Millisecond // see SupervisorConfig.Interval
	supJitterQuarter   = 4                    // jitter amplitude: interval/4 each way
)

func (c SupervisorConfig) withDefaults() SupervisorConfig {
	if c.Interval <= 0 {
		c.Interval = defaultSupInterval
	}
	return c
}

// SupervisorStats is the supervisor's own activity snapshot, reported
// inside TableStats. Every field is zero on a table without
// WithSupervisor.
type SupervisorStats struct {
	// Sweeps counts supervisor ticks (each tick is one Reclaim sweep,
	// whether or not it found anything to heal).
	Sweeps uint64 `json:"sweeps"`
	// PortsHealed counts the orphaned ports the supervisor's sweeps
	// recovered.
	PortsHealed uint64 `json:"ports_healed"`
}

// supervisor is the background sweep loop attached by WithSupervisor.
type supervisor struct {
	t   *LockTable
	cfg SupervisorConfig

	stop chan struct{}
	done chan struct{}

	rng *xrand.Rand

	// eager makes run perform an immediate first tick before arming the
	// interval timer. RestoreTable sets it when the restored image carried
	// orphans: a system-wide crash leaves every in-flight tenancy of the
	// dead incarnation orphaned at once, and a supervised restore should
	// start healing them right away rather than sleeping a full Interval
	// while the whole arena is stalled behind dead holders.
	eager bool

	sweeps      atomic.Uint64
	portsHealed atomic.Uint64
}

// startSupervisor wires the supervisor into the table and launches its
// loop; called from finishInit when WithSupervisor was given. With eager
// set the loop runs its first tick immediately (the restore path's
// sweep-before-first-grant; see supervisor.eager).
func (t *LockTable) startSupervisor(cfg SupervisorConfig, eager bool) {
	s := &supervisor{
		t:     t,
		cfg:   cfg.withDefaults(),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
		rng:   xrand.New(t.seed ^ 0xa5a5a5a5a5a5a5a5),
		eager: eager,
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
		Sweeps:      s.sweeps.Load(),
		PortsHealed: s.portsHealed.Load(),
	}
}

// join stops the loop and waits for it to exit, which includes any sweep
// it is running: a sweep returns only once every port it claimed is
// healed. Called once, from Close.
func (s *supervisor) join() {
	close(s.stop)
	<-s.done
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

// tick is one supervision pass: a full Reclaim sweep. With nothing to heal
// it performs no allocation and no locking — only atomic loads over the
// stripes' lease words.
func (s *supervisor) tick() {
	s.sweeps.Add(1)
	s.portsHealed.Add(uint64(s.t.Reclaim()))
}
