package main

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/rmelib/rme"
	"github.com/rmelib/rme/internal/wait"
)

// The ladder replays a workload's stripe stream through one layer at a
// time, from the floor (sync.Mutex) up to LockTable.Lock and LockAsync, so
// each layer's marginal cost shows as the difference between adjacent
// rungs. Every rung runs the workload's clients closed-loop with the same
// critical-section and think work, and times each call from outside.

// rungLock is one rung's passage: lock and unlock op's stripe as client c.
type rungLock interface {
	lock(c int, o *op)
	unlock(c int, o *op)
}

type oneMutex struct{ mu sync.Mutex }

func (m *oneMutex) lock(int, *op)   { m.mu.Lock() }
func (m *oneMutex) unlock(int, *op) { m.mu.Unlock() }

type paddedMutex struct {
	sync.Mutex
	_ [56]byte
}

type stripedMutex []paddedMutex

func (m stripedMutex) lock(_ int, o *op)   { m[o.s1].Lock() }
func (m stripedMutex) unlock(_ int, o *op) { m[o.s1].Unlock() }

// portLocker is the surface the three bare backends share.
type portLocker interface {
	Lock(port int)
	Unlock(port int)
}

// portLocks is one bare backend lock per stripe; client c always uses
// port c.
type portLocks []portLocker

func (p portLocks) lock(c int, o *op)   { p[o.s1].Lock(c) }
func (p portLocks) unlock(c int, o *op) { p[o.s1].Unlock(c) }

type paddedLease struct {
	l rme.PortLease
	_ [48]byte
}

// leased is a PortLeaser in front of a flat Mutex per stripe: the lease
// layer without the table.
type leased struct {
	pools []*rme.PortLeaser
	locks []*rme.Mutex
	held  []paddedLease
}

func (l *leased) lock(c int, o *op) {
	ls := l.pools[o.s1].Acquire()
	l.held[c].l = ls
	l.locks[o.s1].Lock(ls.Port)
}

func (l *leased) unlock(c int, o *op) {
	ls := l.held[c].l
	l.locks[o.s1].Unlock(ls.Port)
	l.pools[o.s1].Release(ls)
}

type tableRung struct{ tbl *rme.LockTable }

func (t tableRung) lock(_ int, o *op)   { t.tbl.Lock(o.k1) }
func (t tableRung) unlock(_ int, o *op) { t.tbl.Unlock(o.k1) }

type ladder struct {
	cfg   *config
	w     *workload
	rings [][]op
	dur   time.Duration // measured time per rung, after a fifth as warm-up
	fails *failLog
	ports int // bare-rung ports: one per client, at least the table's
	// samples records each rung's sample count in the run metadata.
	samples map[string]uint64
}

// rungs is the number of rungs run takes: two floors, the wait cell, three
// bare backends, the lease, LockTable.Lock, LockAsync and LockAsyncFunc.
const rungs = 10

func newLadder(cfg *config, fails *failLog, rings [][]op) *ladder {
	// Half the window, split evenly over the rungs and their warm-ups.
	dur := cfg.window / 2 / rungs * 5 / 6
	return &ladder{cfg: cfg, w: cfg.w, rings: rings, dur: dur, fails: fails, ports: max(cfg.w.ports, cfg.clients)}
}

// rungClient is one rung goroutine's progress and measurements.
type rungClient struct {
	done atomic.Uint64
	_    [56]byte
	h    *hist
}

// closedLoop runs the clients through warm-up and one measured rung
// duration, calling body for each passage, and returns the merged
// histogram of the samples body returned while measuring. onMeasure, if
// non-nil, is called as measuring begins (true) and ends (false).
func (l *ladder) closedLoop(name string, body func(c int, o *op, x uint64, meas bool) (sample int64, _ uint64), onMeasure func(begin bool)) *hist {
	var phase atomic.Int32
	rcs := make([]*rungClient, l.cfg.clients)
	for c := range rcs {
		rcs[c] = &rungClient{h: new(hist)}
	}
	progress := func() uint64 {
		var n uint64
		for _, rc := range rcs {
			n += rc.done.Load()
		}
		return n
	}
	stop := watch(l.cfg, l.w.name+" ladder "+name, progress)
	var wg sync.WaitGroup
	for c := range rcs {
		wg.Add(1)
		go func(c int, rc *rungClient) {
			defer wg.Done()
			ring, x := l.rings[c], uint64(c)+1
			for i := 0; ; i++ {
				ph := phase.Load()
				if ph == phaseStop {
					return
				}
				var sample int64
				sample, x = body(c, &ring[i&(len(ring)-1)], x, ph == phaseMeasure)
				if ph == phaseMeasure {
					rc.h.add(sample)
				}
				rc.done.Add(1)
				x = work(l.w.think, x)
			}
		}(c, rcs[c])
	}
	time.Sleep(l.dur / 5)
	if onMeasure != nil {
		onMeasure(true)
	}
	phase.Store(phaseMeasure)
	time.Sleep(l.dur)
	if onMeasure != nil {
		onMeasure(false)
	}
	phase.Store(phaseStop)
	wg.Wait()
	stop()
	h := new(hist)
	for _, rc := range rcs {
		h.merge(rc.h)
	}
	l.samples["ladder."+name] = h.n
	return h
}

// passages runs one passage rung and returns its median passage time (the
// acquire call plus the release call) and wakes per passage.
func (l *ladder) passages(name string, rl rungLock, wakes func() uint64) (passageNs, wakesPer float64) {
	ref, who := make(referee, l.w.shards), l.w.name+" ladder "+name
	body := func(c int, o *op, x uint64, _ bool) (int64, uint64) {
		id := uint32(c) + 1
		t0 := now()
		rl.lock(c, o)
		t1 := now()
		ref.claim(l.fails, who, o.s1, 0, id)
		x = work(l.w.cs, x)
		ref.claim(l.fails, who, o.s1, id, 0)
		t2 := now()
		rl.unlock(c, o)
		return t1 - t0 + now() - t2, x
	}
	var w0, w1 uint64
	onMeasure := func(begin bool) {
		if wakes == nil {
			return
		}
		if begin {
			w0 = wakes()
		} else {
			w1 = wakes()
		}
	}
	h := l.closedLoop(name, body, onMeasure)
	if h.n > 0 {
		wakesPer = float64(w1-w0) / float64(h.n)
	}
	return h.quantile(0.5), wakesPer
}

// instrumented returns the default wait strategy with counters attached,
// the way NewLockTable instruments its stripes.
func instrumented() (rme.Option, func() uint64) {
	st := &wait.Stats{}
	return rme.WithWaitStrategy(wait.Instrumented(wait.Yield(), st)), st.Wakes.Load
}

// cellHandoff ping-pongs two goroutines through wait.Cells and returns
// the median one-way hand-off time.
func (l *ladder) cellHandoff() float64 {
	var a, b wait.Cell
	var turn atomic.Int32 // 0: ping's turn, 1: pong's turn, 2: done
	st := wait.Yield()
	pingCond := func() bool { return turn.Load() != 1 }
	pongCond := func() bool { return turn.Load() != 0 }
	var trips atomic.Uint64
	stop := watch(l.cfg, l.w.name+" ladder cell", trips.Load)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			b.Await(st, pongCond)
			if turn.Load() == 2 {
				return
			}
			turn.Store(0)
			a.Wake()
		}
	}()
	h := new(hist)
	warmEnd := now() + int64(l.dur/5)
	end := warmEnd + int64(l.dur)
	for {
		t0 := now()
		turn.Store(1)
		b.Wake()
		a.Await(st, pingCond)
		t1 := now()
		trips.Add(1)
		if t1 >= end {
			break
		}
		if t1 >= warmEnd {
			h.add((t1 - t0) / 2)
		}
	}
	turn.Store(2)
	b.Wake()
	wg.Wait()
	stop()
	l.samples["ladder.wait.Cell"] = h.n
	return h.quantile(0.5)
}

// async runs the LockAsync rung (submit, receive, critical section,
// Grant.Unlock; one request in flight per client) and the LockAsyncFunc
// rung, and sets the locktable_async and dispatch metrics. No workload
// window makes an async call, so these rungs are where the dispatcher is
// measured.
func (l *ladder) async(set func(name, unit string, v float64)) {
	tbl := rme.NewLockTable(l.w.shards, l.w.ports, rme.WithTableSeed(tableSeed))
	defer tbl.Close()
	ref, who := make(referee, l.w.shards), l.w.name+" ladder LockAsync"
	submit, unlock := make([]*hist, l.cfg.clients), make([]*hist, l.cfg.clients)
	for c := range submit {
		submit[c], unlock[c] = new(hist), new(hist)
	}
	body := func(c int, o *op, x uint64, meas bool) (int64, uint64) {
		id := uint32(c) + 1
		t0 := now()
		ch := tbl.LockAsync(o.k1)
		ta := now()
		g := <-ch
		t1 := now()
		ref.claim(l.fails, who, o.s1, 0, id)
		x = work(l.w.cs, x)
		ref.claim(l.fails, who, o.s1, id, 0)
		t2 := now()
		g.Unlock()
		if meas {
			submit[c].add(ta - t0)
			unlock[c].add(now() - t2)
		}
		return t1 - t0, x
	}
	// The dispatcher's gauges are sampled while measuring; goroutines are
	// counted beyond the benchmark's own (this one, the clients, the
	// watchdog and the sampler).
	own := runtime.NumGoroutine() + l.cfg.clients + 2
	var st0, st1 rme.TableStats
	var workers, runq, goroutines []float64
	stopSampling, sampled := make(chan struct{}), make(chan struct{})
	onMeasure := func(begin bool) {
		if !begin {
			close(stopSampling)
			<-sampled
			st1 = tbl.Stats()
			return
		}
		st0 = tbl.Stats()
		go func() {
			defer close(sampled)
			tick := time.NewTicker(l.dur / 20)
			defer tick.Stop()
			for {
				select {
				case <-stopSampling:
					return
				case <-tick.C:
				}
				d := tbl.Stats().Dispatcher
				workers = append(workers, float64(d.Workers))
				runq = append(runq, float64(d.RunQueueDepth))
				goroutines = append(goroutines, float64(runtime.NumGoroutine()-own))
			}
		}()
	}
	recv := l.closedLoop("LockAsync", body, onMeasure)
	sub, unl := new(hist), new(hist)
	for c := range submit {
		sub.merge(submit[c])
		unl.merge(unlock[c])
	}
	grant := l.asyncGrant()

	set("locktable_async.submit_p50_ns", "ns", sub.quantile(0.5))
	set("locktable_async.unlock_p50_ns", "ns", unl.quantile(0.5))
	set("locktable_async.receive_p50_us", "us", recv.quantile(0.5)/1e3)
	set("locktable_async.receive_p99_us", "us", recv.quantile(0.99)/1e3)
	set("locktable_async.grant_p50_us", "us", grant.quantile(0.5)/1e3)
	set("locktable_async.grant_p99_us", "us", grant.quantile(0.99)/1e3)
	acq := st1.Total().Acquires - st0.Total().Acquires
	set("dispatch.requests_per_batch", "count", ratio(acq, st1.Dispatcher.Batches-st0.Dispatcher.Batches))
	set("dispatch.steals_per_acquire", "count", ratio(st1.Dispatcher.Steals-st0.Dispatcher.Steals, acq))
	set("dispatch.workers_live", "count", mean(workers))
	set("dispatch.run_queue_depth", "count", mean(runq))
	set("dispatch.goroutines", "count", mean(goroutines))
}

// asyncGrant is the LockAsyncFunc rung: each client submits one request at
// a time, and the callback timestamps the grant on the dispatcher worker,
// runs the critical section and releases. It returns the submit-to-grant
// histogram.
func (l *ladder) asyncGrant() *hist {
	tbl := rme.NewLockTable(l.w.shards, l.w.ports, rme.WithTableSeed(tableSeed))
	defer tbl.Close()
	ref, who := make(referee, l.w.shards), l.w.name+" ladder LockAsyncFunc"
	type slot struct {
		granted chan int64
		fn      func(rme.Grant)
		o       *op
	}
	slots := make([]*slot, l.cfg.clients)
	for c := range slots {
		s := &slot{granted: make(chan int64, 1)}
		id, x := uint32(c)+1, uint64(c)+1
		s.fn = func(g rme.Grant) {
			tg := now()
			ref.claim(l.fails, who, s.o.s1, 0, id)
			x = work(l.w.cs, x)
			ref.claim(l.fails, who, s.o.s1, id, 0)
			g.Unlock()
			s.granted <- tg
		}
		slots[c] = s
	}
	body := func(c int, o *op, x uint64, _ bool) (int64, uint64) {
		s := slots[c]
		s.o = o
		t0 := now()
		tbl.LockAsyncFunc(o.k1, s.fn)
		return <-s.granted - t0, x
	}
	return l.closedLoop("LockAsyncFunc", body, nil)
}

// run climbs the ladder, storing each rung's metrics in m and its sample
// count in samples.
func (l *ladder) run(m map[string]metric, samples map[string]uint64) {
	l.samples = samples
	shards := l.w.shards
	set := func(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }

	ns, _ := l.passages("sync.Mutex", &oneMutex{}, nil)
	set("floor.sync_mutex_ns", "ns", ns)
	ns, _ = l.passages("[]sync.Mutex", make(stripedMutex, shards), nil)
	set("floor.striped_mutex_ns", "ns", ns)

	set("wait.cell_handoff_ns", "ns", l.cellHandoff())

	backends := []struct {
		name string
		mk   func(ports int, opt rme.Option) portLocker
	}{
		{"mutex", func(p int, opt rme.Option) portLocker { return rme.New(p, opt) }},
		{"mcs", func(p int, opt rme.Option) portLocker { return rme.NewMCS(p, opt) }},
		{"tree", func(p int, opt rme.Option) portLocker { return rme.NewTree(p, opt) }},
	}
	for _, b := range backends {
		opt, wakes := instrumented()
		locks := make(portLocks, shards)
		for i := range locks {
			locks[i] = b.mk(l.ports, opt)
		}
		ns, wp := l.passages(b.name, locks, wakes)
		set(b.name+".passage_ns", "ns", ns)
		set(b.name+".wakes_per_passage", "count", wp)
	}
	mutexNs := m["mutex.passage_ns"].Value

	opt, wakes := instrumented()
	ld := &leased{pools: make([]*rme.PortLeaser, shards), locks: make([]*rme.Mutex, shards), held: make([]paddedLease, l.cfg.clients)}
	for i := 0; i < shards; i++ {
		ld.pools[i] = rme.NewPortLeaser(l.w.ports, opt)
		ld.locks[i] = rme.New(l.w.ports, opt)
	}
	leaseNs, _ := l.passages("lease", ld, wakes)
	set("lease.passage_ns", "ns", leaseNs)
	set("lease.self_ns", "ns", leaseNs-mutexNs)

	tbl := rme.NewLockTable(shards, l.w.ports, rme.WithTableSeed(tableSeed))
	tableNs, _ := l.passages("LockTable.Lock", tableRung{tbl}, nil)
	tbl.Close()
	set("locktable.self_ns", "ns", tableNs-leaseNs)

	l.async(set)
}
