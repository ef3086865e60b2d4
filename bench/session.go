package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/rmelib/rme"
)

var epoch = time.Now()

// now is the benchmark clock: monotonic nanoseconds since start.
func now() int64 { return int64(time.Since(epoch)) }

const (
	phaseWarm int32 = iota
	phaseMeasure
	phaseStop
)

// session is one table, its clients and its referee for one window. No
// table or goroutine outlives the session that made it.
type session struct {
	w       *workload
	cfg     *config
	tbl     *rme.LockTable
	clients []*client
	owner   referee
	phase   atomic.Int32
	// start is the clock at the start of the measured window, written
	// before phase turns phaseMeasure.
	start int64
	// ctx carries the live 1 h deadline every LockContext call runs under.
	ctx    context.Context
	cancel context.CancelFunc
	// tokens counts armed crashes not yet fired; fired counts those fired.
	tokens    atomic.Int64
	fired     atomic.Uint64
	traceFull atomic.Bool
	fails     *failLog
}

// client is one closed-loop worker: it issues its ring's next op only
// after the previous one completes.
type client struct {
	id   int
	who  string // names the client in failure reports
	s    *session
	ring []op
	// done counts completed passages in every phase; the throughput slices
	// and the watchdog read it.
	done atomic.Uint64
	_    [56]byte
	x    uint64
	// tenancies counts the stripe acquisitions this client's passages
	// caused; their sum must equal the table's Acquires.
	tenancies uint64
	measured  uint64
	// acq and rel hold acquire and release latencies per slice of the
	// measured window; rec holds crash recoveries over the whole window.
	acq, rel []*hist
	rec      *hist
	counts
	tr   *tracer
	keys [2]uint64
}

// counts are taken at layer boundaries, in every phase.
type counts struct {
	tryAttempts, tryHits   uint64
	batches, batchStripes  uint64
	retries                uint64 // acquisitions retried after a crash
	reclaims, usefulSweeps uint64 // Reclaim calls, and those that reclaimed a port
}

func (c *counts) add(o counts) {
	c.tryAttempts += o.tryAttempts
	c.tryHits += o.tryHits
	c.batches += o.batches
	c.batchStripes += o.batchStripes
	c.retries += o.retries
	c.reclaims += o.reclaims
	c.usefulSweeps += o.usefulSweeps
}

// failLog collects failures from every goroutine of a run.
type failLog struct {
	mu   sync.Mutex
	n    uint64
	msgs []string
}

func (f *failLog) add(format string, args ...any) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.n++
	if len(f.msgs) < 20 {
		f.msgs = append(f.msgs, fmt.Sprintf(format, args...))
	}
}

func (f *failLog) count() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.n
}

func newSession(w *workload, cfg *config, fails *failLog, tracing bool) *session {
	tbl := rme.NewLockTable(w.shards, w.ports, rme.WithTableSeed(tableSeed))
	s := &session{w: w, cfg: cfg, tbl: tbl, owner: make(referee, w.shards), fails: fails}
	s.ctx, s.cancel = context.WithDeadline(context.Background(), time.Now().Add(time.Hour))
	for c := 0; c < cfg.clients; c++ {
		cl := &client{id: c, who: fmt.Sprintf("%s client %d", w.name, c), s: s,
			ring: genRing(w, tbl, cfg.seed, c), x: uint64(c) + 1, rec: new(hist)}
		if tracing {
			cl.tr = &tracer{spans: make([]span, 0, traceCap/cfg.clients), full: &s.traceFull}
		}
		s.clients = append(s.clients, cl)
	}
	if w.crashEvery > 0 {
		tbl.SetCrashFunc(s.crashHook)
	}
	return s
}

// crashHook fires one armed token at whatever crash point any goroutine
// reaches next, so the crash rate does not depend on how many crash points
// the library has.
func (s *session) crashHook(int, string) bool {
	for {
		n := s.tokens.Load()
		if n == 0 {
			return false
		}
		if s.tokens.CompareAndSwap(n, n-1) {
			s.fired.Add(1)
			return true
		}
	}
}

func (s *session) progress() uint64 {
	var n uint64
	for _, c := range s.clients {
		n += c.done.Load()
	}
	return n
}

// window is what one session run measured.
type window struct {
	// Per slice of the window: passages/s, and acquire and release latency
	// percentiles in ns; acqN and relN count the latency samples.
	rates               []float64
	acq50, acq99, rel99 []float64
	acqN, relN          uint64
	passages            uint64
	elapsed             time.Duration
	mallocs             uint64
	heap                uint64
	// stats0 and stats1 are the table's counters as the window opens and
	// closes.
	stats0, stats1 rme.ShardStats
}

// slice is the unit the window is cut into. Each metric is reported as
// the median over slices, so a burst of noise from outside the process
// moves it less than it moves a whole-window figure.
const slice = 500 * time.Millisecond

// minSliceSamples is the fewest latency samples a slice needs to count.
const minSliceSamples = 100

// run drives the clients through warm-up and the measured window, stops
// them, drains the table and checks it: every stripe free, no orphan, and
// the table's Acquires equal to the tenancies the clients caused.
func (s *session) run(warm, dur time.Duration) window {
	var wg sync.WaitGroup
	slices := int(dur/slice) + 2
	for _, c := range s.clients {
		c.acq, c.rel = make([]*hist, slices), make([]*hist, slices)
	}
	stop := watch(s.cfg, s.w.name, s.progress)
	for _, c := range s.clients {
		wg.Add(1)
		go c.run(&wg)
	}
	time.Sleep(warm)

	var win window
	var m0, m1 runtime.MemStats
	win.stats0 = s.tbl.Stats().Total()
	runtime.ReadMemStats(&m0)
	p0 := s.progress()
	s.start = now()
	s.phase.Store(phaseMeasure)
	start := time.Now()
	last, lastT := p0, start
	for time.Since(start) < dur && !s.traceFull.Load() {
		time.Sleep(min(slice, dur-time.Since(start)))
		p, t := s.progress(), time.Now()
		if d := t.Sub(lastT); d >= slice/2 {
			win.rates = append(win.rates, float64(p-last)/d.Seconds())
		}
		last, lastT = p, t
	}
	win.elapsed = time.Since(start)
	win.passages = s.progress() - p0
	runtime.ReadMemStats(&m1)
	win.mallocs = m1.Mallocs - m0.Mallocs
	s.phase.Store(phaseStop)
	win.stats1 = s.tbl.Stats().Total()
	wg.Wait()
	stop()
	s.drain()

	for i := 0; i < slices; i++ {
		acq, rel := new(hist), new(hist)
		for _, c := range s.clients {
			if c.acq[i] != nil {
				acq.merge(c.acq[i])
				rel.merge(c.rel[i])
			}
		}
		if acq.n >= minSliceSamples {
			win.acq50 = append(win.acq50, acq.quantile(0.5))
			win.acq99 = append(win.acq99, acq.quantile(0.99))
			win.rel99 = append(win.rel99, rel.quantile(0.99))
			win.acqN += acq.n
			win.relN += rel.n
		}
	}
	for _, c := range s.clients {
		c.acq, c.rel = nil, nil // not part of the heap being measured
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	win.heap = m1.HeapAlloc
	runtime.KeepAlive(s.tbl)
	return win
}

// drain checks the table once the clients have stopped.
func (s *session) drain() {
	s.tbl.SetCrashFunc(nil)
	deadline := time.Now().Add(5 * time.Second)
	for s.tbl.InUse() != 0 || s.tbl.Orphans() != 0 {
		if time.Now().After(deadline) {
			s.fails.add("%s: after drain %d ports in use, %d orphaned", s.w.name, s.tbl.InUse(), s.tbl.Orphans())
			break
		}
		time.Sleep(time.Millisecond)
	}
	var want uint64
	for _, c := range s.clients {
		want += c.tenancies
	}
	if got := s.tbl.Stats().Total().Acquires; got != want {
		s.fails.add("%s: table counted %d acquires, clients caused %d", s.w.name, got, want)
	}
}

func (s *session) close() {
	s.cancel()
	s.tbl.Close()
}

func (c *client) fail(format string, args ...any) {
	c.s.fails.add("%s: "+format, append([]any{c.who}, args...)...)
}

// referee holds one owner word per stripe: a client's id+1 while that
// client is inside a critical section on the stripe, else 0.
type referee []atomic.Uint32

// claim moves stripe's owner word from one holder to another, reporting a
// mutual-exclusion violation on behalf of who if the word held anyone
// else.
func (r referee) claim(fails *failLog, who string, stripe int32, from, to uint32) {
	if w := &r[stripe]; !w.CompareAndSwap(from, to) {
		fails.add("%s: stripe %d owner word %d, want %d: mutual exclusion violated", who, stripe, w.Load(), from)
	}
}

// enter and exit are the referee's critical-section checks: each of op's
// stripes must be free on entry and still this client's on exit.
func (c *client) enter(o *op) {
	c.s.owner.claim(c.s.fails, c.who, o.s1, 0, uint32(c.id+1))
	if o.s2 >= 0 {
		c.s.owner.claim(c.s.fails, c.who, o.s2, 0, uint32(c.id+1))
	}
}

func (c *client) exit(o *op) {
	c.s.owner.claim(c.s.fails, c.who, o.s1, uint32(c.id+1), 0)
	if o.s2 >= 0 {
		c.s.owner.claim(c.s.fails, c.who, o.s2, uint32(c.id+1), 0)
	}
}

func (c *client) run(wg *sync.WaitGroup) {
	defer wg.Done()
	defer func() {
		if p := recover(); p != nil {
			c.fail("panic: %v", p)
		}
	}()
	mask := len(c.ring) - 1
	for i := 0; ; i++ {
		ph := c.s.phase.Load()
		if ph == phaseStop {
			return
		}
		o := &c.ring[i&mask]
		id := uint64(c.id)<<40 | uint64(i)
		if c.s.w.crashEvery > 0 {
			c.crashOp(o, id, ph == phaseMeasure)
		} else {
			c.syncOp(o, id, ph == phaseMeasure)
		}
		c.done.Add(1)
		c.x = work(c.s.w.think, c.x)
	}
}

func (c *client) record(meas bool, t0, t1, t2, t3 int64) {
	if !meas {
		return
	}
	c.measured++
	i := min(int((t0-c.s.start)/int64(slice)), len(c.acq)-1)
	if c.acq[i] == nil {
		c.acq[i], c.rel[i] = new(hist), new(hist)
	}
	c.acq[i].add(t1 - t0)
	c.rel[i].add(t3 - t2)
}

func (c *client) syncOp(o *op, id uint64, meas bool) {
	tbl := c.s.tbl
	var b *rme.Batch
	acquire := spLock
	t0 := now()
	tm, missed := t0, false // TryLock's return, and whether it fell back to Lock
	switch o.kind {
	case opLock:
		tbl.Lock(o.k1)
	case opLockContext:
		acquire = spLockContext
		if err := tbl.LockContext(c.s.ctx, o.k1); err != nil {
			c.fail("LockContext(%#x) on a live context: %v", o.k1, err)
			return
		}
	case opTryLock:
		ok := tbl.TryLock(o.k1)
		c.tryAttempts++
		acquire, tm, missed = spTryLock, now(), !ok
		if ok {
			c.tryHits++
		} else {
			tbl.Lock(o.k1)
		}
	case opBatch:
		acquire = spLockBatch
		c.keys = [2]uint64{o.k1, o.k2}
		b = tbl.LockBatch(c.keys[:])
		c.batches++
		c.batchStripes++
		if o.s2 >= 0 {
			c.batchStripes++
			c.tenancies++
		}
	}
	t1 := now()
	c.tenancies++
	c.enter(o)
	c.x = work(c.s.w.cs, c.x)
	c.exit(o)
	t2 := now()
	release := spUnlock
	if b != nil {
		release = spBatchUnlock
		b.Unlock()
	} else {
		tbl.Unlock(o.k1)
	}
	t3 := now()
	c.record(meas, t0, t1, t2, t3)
	if tr := c.tr; tr != nil && meas {
		r := tr.open(id, t0)
		if missed {
			tr.child(r, spTryLock, t0, tm)
			tr.child(r, spLock, tm, t1)
		} else {
			tr.child(r, acquire, t0, t1)
		}
		tr.child(r, release, t2, t3)
		tr.close(r, t3)
	}
}

// crashOp is LockTable.Do written out: a worker that catches a Crash out
// of Lock sweeps with Reclaim and retries, and one that catches it out of
// Unlock sweeps to finish the release.
func (c *client) crashOp(o *op, id uint64, meas bool) {
	tbl, tr := c.s.tbl, c.tr
	t0 := now()
	r := int32(-1) // the root span; children of -1 are not recorded
	if meas {
		r = tr.open(id, t0)
	}
	if o.arm {
		c.s.tokens.Add(1)
	}
	var crashAt, t1 int64
	for ta := t0; ; ta = now() {
		crashed := crashes(func() { tbl.Lock(o.k1) })
		tb := now()
		tr.child(r, spLock, ta, tb)
		if !crashed {
			t1 = tb
			break
		}
		if crashAt == 0 {
			crashAt = tb
		}
		c.retries++
		c.reclaim(r)
	}
	if crashAt != 0 && meas {
		c.rec.add(t1 - crashAt)
	}
	c.tenancies++
	c.enter(o)
	c.x = work(c.s.w.cs, c.x)
	c.exit(o)
	t2 := now()
	crashed := crashes(func() { tbl.Unlock(o.k1) })
	t3 := now()
	tr.child(r, spUnlock, t2, t3)
	if crashed {
		c.reclaim(r)
		t3 = now()
	}
	c.record(meas, t0, t1, t2, t3)
	tr.close(r, t3)
}

func (c *client) reclaim(parent int32) {
	t := now()
	n := c.s.tbl.Reclaim()
	c.tr.child(parent, spReclaim, t, now())
	c.reclaims++
	if n > 0 {
		c.usefulSweeps++
	}
}

// crashes runs f and reports whether an injected crash interrupted it;
// any other panic propagates.
func crashes(f func()) (crashed bool) {
	defer func() {
		if p := recover(); p != nil {
			if _, ok := rme.AsCrash(p); !ok {
				panic(p)
			}
			crashed = true
		}
	}()
	f()
	return false
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func mean(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	var sum float64
	for _, x := range v {
		sum += x
	}
	return sum / float64(len(v))
}

func warnf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
}
