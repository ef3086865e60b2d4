package rme_test

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	rme "github.com/rmelib/rme"
	"github.com/rmelib/rme/internal/xrand"
)

func TestPortLeaserBasics(t *testing.T) {
	p := rme.NewPortLeaser(2)
	if p.Ports() != 2 || p.InUse() != 0 {
		t.Fatalf("fresh leaser: ports=%d inuse=%d", p.Ports(), p.InUse())
	}
	a, ok := p.TryAcquire()
	b, ok2 := p.TryAcquire()
	if !ok || !ok2 || a.Port == b.Port {
		t.Fatalf("could not lease both ports: %v/%v %v/%v", a, ok, b, ok2)
	}
	if _, ok := p.TryAcquire(); ok {
		t.Fatal("TryAcquire succeeded with every port leased")
	}
	if p.State(a.Port) != rme.LeaseHeld {
		t.Fatalf("State(%d) = %v, want held", a.Port, p.State(a.Port))
	}
	p.Release(a)
	if p.State(a.Port) != rme.LeaseFree || p.InUse() != 1 {
		t.Fatalf("after release: state=%v inuse=%d", p.State(a.Port), p.InUse())
	}
	c := p.Acquire() // must hand back the freed port
	if c.Port != a.Port {
		t.Fatalf("Acquire leased port %d, want the freed %d", c.Port, a.Port)
	}
	p.Release(b)
	p.Release(c)
}

func TestPortLeaserStaleLeasePanics(t *testing.T) {
	p := rme.NewPortLeaser(1)
	l := p.Acquire()
	p.Release(l)
	l2 := p.Acquire() // new tenancy, new epoch
	defer p.Release(l2)
	defer func() {
		if recover() == nil {
			t.Fatal("stale Release did not panic")
		}
	}()
	p.Release(l) // stale: epoch moved on
}

func TestPortLeaserOrphanReclaim(t *testing.T) {
	p := rme.NewPortLeaser(3)
	l := p.Acquire()
	func() {
		defer func() {
			if _, ok := rme.AsCrash(recover()); !ok {
				t.Fatal("crash did not propagate out of OrphanOnCrash")
			}
		}()
		p.OrphanOnCrash(l, func() { panic(rme.Crash{Port: l.Port, Point: "test"}) })
	}()
	if p.State(l.Port) != rme.LeaseOrphaned {
		t.Fatalf("State = %v after crash, want orphaned", p.State(l.Port))
	}
	var recovered []int
	if n := p.ReclaimOrphans(func(port int) { recovered = append(recovered, port) }); n != 1 {
		t.Fatalf("ReclaimOrphans = %d, want 1", n)
	}
	if len(recovered) != 1 || recovered[0] != l.Port {
		t.Fatalf("recovered ports %v, want [%d]", recovered, l.Port)
	}
	if p.State(l.Port) != rme.LeaseFree || p.InUse() != 0 {
		t.Fatalf("after reclaim: state=%v inuse=%d", p.State(l.Port), p.InUse())
	}
	// A non-crash panic must pass through without orphaning.
	l = p.Acquire()
	func() {
		defer func() { recover() }()
		p.OrphanOnCrash(l, func() { panic("a real bug") })
	}()
	if p.State(l.Port) != rme.LeaseHeld {
		t.Fatalf("non-crash panic moved the lease to %v", p.State(l.Port))
	}
	p.Release(l)
}

// TestLeaseReclaimLateOrphan pins the late-orphan wedge on the standalone
// leaser. A sweep claims port 1, whose recovery Lock is queued behind port
// 0's critical section, and only then does port 0's holder die. Nothing
// else is sweeping, so ReclaimOrphans must claim the late orphan while its
// first recovery is still blocked, instead of waiting on that recovery
// forever.
func TestLeaseReclaimLateOrphan(t *testing.T) {
	p := rme.NewPortLeaser(2)
	m := rme.New(2)
	l0 := p.Acquire()
	m.Lock(l0.Port)
	l1 := p.Acquire()
	var armed atomic.Bool
	armed.Store(true)
	m.SetCrashFunc(func(port int, point string) bool {
		return port == l1.Port && point == "L25" && armed.CompareAndSwap(true, false)
	})
	if absorbCrash(func() { p.OrphanOnCrash(l1, func() { m.Lock(l1.Port) }) }) {
		t.Fatal("port 1's Lock survived its armed crash at L25")
	}

	swept := make(chan int, 1)
	go func() {
		swept <- p.ReclaimOrphans(func(port int) {
			m.Lock(port)
			m.Unlock(port)
		})
	}()
	waitFor(t, 3*time.Second, "the sweep to claim port 1", func() bool {
		return p.State(l1.Port) == rme.LeaseReclaiming
	})
	p.Orphan(l0) // port 0 dies holding the critical section
	select {
	case n := <-swept:
		if n != 2 {
			t.Fatalf("ReclaimOrphans = %d, want 2 (the first claim and the late orphan)", n)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("ReclaimOrphans hung on a recovery queued behind a late orphan")
	}
	if p.InUse() != 0 || m.Held(l0.Port) || m.Held(l1.Port) {
		t.Fatalf("after the sweep: %d ports in use, held %v/%v", p.InUse(), m.Held(l0.Port), m.Held(l1.Port))
	}
}

// TestLeaseStormRace is the lease layer's -race storm: many more workers
// than ports acquire, sometimes die (Crash panic through OrphanOnCrash),
// and a supervisor sweeps orphans concurrently. The referee is per-port
// tenancy exclusivity: between acquire and hand-back exactly one worker
// may consider the port its own.
func TestLeaseStormRace(t *testing.T) {
	const ports, workers, iters = 4, 32, 200
	p := rme.NewPortLeaser(ports)
	owners := make([]atomic.Int32, ports)
	var crashes, reclaims atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := xrand.New(uint64(w) + 1)
			for i := 0; i < iters; i++ {
				l := p.Acquire()
				if owners[l.Port].Add(1) != 1 {
					t.Errorf("port %d leased to two workers at once", l.Port)
				}
				die := rng.Intn(5) == 0
				owners[l.Port].Add(-1)
				if die {
					func() {
						defer func() {
							if _, ok := rme.AsCrash(recover()); !ok {
								t.Error("lost a crash panic")
							}
						}()
						p.OrphanOnCrash(l, func() { panic(rme.Crash{Port: l.Port, Point: "storm"}) })
					}()
					crashes.Add(1)
					// The worker that observed the death sweeps, as a real
					// supervisor would; sweeps race each other on purpose.
					reclaims.Add(int64(p.ReclaimOrphans(func(int) {})))
				} else {
					p.Release(l)
				}
			}
		}(w)
	}
	wg.Wait()
	reclaims.Add(int64(p.ReclaimOrphans(func(int) {}))) // final sweep
	if p.InUse() != 0 {
		t.Fatalf("ports still in use after the storm: %d", p.InUse())
	}
	if crashes.Load() != reclaims.Load() {
		t.Fatalf("crashes %d != reclaims %d: orphan lost or double-reclaimed",
			crashes.Load(), reclaims.Load())
	}
	if crashes.Load() == 0 {
		t.Fatal("storm produced no crashes; referee never exercised")
	}
}

// TestLeasedMutexWorkers drives one k-ported Mutex from a rotating cast of
// worker goroutines via PortLeaser — the usage the lease layer exists for:
// no goroutine is pinned to a port, yet the port discipline (one live user
// per port) holds throughout.
func TestLeasedMutexWorkers(t *testing.T) {
	const ports, workers, iters = 3, 12, 150
	m := rme.New(ports, rme.WithNodePool(true))
	p := rme.NewPortLeaser(ports)
	var inside atomic.Int32
	counter := 0 // race-detector referee
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				l := p.Acquire()
				m.Lock(l.Port)
				if inside.Add(1) != 1 {
					t.Error("two leased workers inside the CS")
				}
				counter++
				inside.Add(-1)
				m.Unlock(l.Port)
				p.Release(l)
			}
		}()
	}
	wg.Wait()
	if counter != workers*iters {
		t.Fatalf("counter = %d, want %d", counter, workers*iters)
	}
}
