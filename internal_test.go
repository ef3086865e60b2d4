package rme

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"github.com/rmelib/rme/internal/wait"
)

// White-box tests for the unexported runtime building blocks: the Signal
// object port and the recoverable tournament lock port.

func signalStrategies() []wait.Strategy {
	return []wait.Strategy{wait.Yield(), wait.Spin(), wait.SpinThenPark(8)}
}

func TestSignalSetThenWait(t *testing.T) {
	for _, st := range signalStrategies() {
		t.Run(st.String(), func(t *testing.T) {
			var s signal
			s.set()
			done := make(chan struct{})
			go func() {
				s.wait(st, nil)
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(2 * time.Second):
				t.Fatal("wait() after set() did not return")
			}
		})
	}
}

func TestSignalWaitThenSet(t *testing.T) {
	for _, st := range signalStrategies() {
		t.Run(st.String(), func(t *testing.T) {
			var s signal
			done := make(chan struct{})
			go func() {
				s.wait(st, nil)
				close(done)
			}()
			select {
			case <-done:
				t.Fatal("wait() returned before set()")
			case <-time.After(20 * time.Millisecond):
			}
			s.set()
			select {
			case <-done:
			case <-time.After(2 * time.Second):
				t.Fatal("wait() never released after set()")
			}
		})
	}
}

func TestSignalReExecutedWaitAfterAbandonment(t *testing.T) {
	// A waiter "crashes" (abandons its published spin word); the
	// re-executed wait must still be released by a later set. This is the
	// paper's fresh-boolean-per-wait property (Figure 2, line 5).
	for _, st := range signalStrategies() {
		t.Run(st.String(), func(t *testing.T) {
			var s signal
			abandoned := make(chan struct{})
			go func() {
				// Simulate the pre-crash prefix of wait(): open the
				// episode, then die without sleeping.
				s.cell.Begin(st)
				close(abandoned)
			}()
			<-abandoned
			done := make(chan struct{})
			go func() {
				s.wait(st, nil) // the recovered process re-executes wait()
				close(done)
			}()
			time.Sleep(10 * time.Millisecond)
			s.set()
			select {
			case <-done:
			case <-time.After(2 * time.Second):
				t.Fatal("re-executed wait() was not released")
			}
		})
	}
}

func TestSignalForceSet(t *testing.T) {
	var s signal
	s.forceSet()
	if !s.isSet() {
		t.Fatal("forceSet did not set")
	}
	s.wait(wait.Yield(), nil) // must return immediately (same goroutine: would hang otherwise)
}

func TestRLockMutualExclusion(t *testing.T) {
	const ports, iters = 8, 300
	m := New(ports) // provides the crash hook plumbing for rlock
	counter := 0    // race detector referee
	var inside atomic.Int32
	var wg sync.WaitGroup
	for p := 0; p < ports; p++ {
		wg.Add(1)
		go func(port int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				m.rl.lock(m, port)
				if inside.Add(1) != 1 {
					t.Errorf("two ports inside the rlock CS")
				}
				counter++
				inside.Add(-1)
				m.rl.unlock(m, port)
			}
		}(p)
	}
	wg.Wait()
	if counter != ports*iters {
		t.Fatalf("counter = %d, want %d", counter, ports*iters)
	}
}

func TestRLockCSRStage(t *testing.T) {
	m := New(2)
	m.rl.lock(m, 0)
	// Simulate a crash while holding: a fresh lock call on the same port
	// must return immediately (stage = inCS).
	done := make(chan struct{})
	go func() {
		m.rl.lock(m, 0)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("rlock CSR re-entry blocked")
	}
	m.rl.unlock(m, 0)
}

func TestRLockExitReplayAfterCrash(t *testing.T) {
	// Crash mid-exit (stage exiting, flags partially cleared), then a new
	// lock call must replay the exit and acquire afresh — while a rival
	// also gets its turn.
	m := New(2)
	m.rl.lock(m, 0)
	m.rl.stage[0].Store(rlExiting) // crashed just after declaring the exit

	acquired := make(chan int, 2)
	go func() {
		m.rl.lock(m, 1)
		acquired <- 1
		m.rl.unlock(m, 1)
	}()
	go func() {
		m.rl.lock(m, 0) // replays the exit, then climbs
		acquired <- 0
		m.rl.unlock(m, 0)
	}()
	for i := 0; i < 2; i++ {
		select {
		case <-acquired:
		case <-time.After(5 * time.Second):
			t.Fatal("exit replay deadlocked the rlock")
		}
	}
}

func TestMaximalQPathsShapes(t *testing.T) {
	a, b, c, d := new(qnode), new(qnode), new(qnode), new(qnode)
	sc := newRepairScratch(4)
	sc.reset()
	for _, v := range []*qnode{a, b, c, d} {
		sc.vertices[v] = struct{}{}
	}
	sc.out[a] = b // a -> b -> c, d isolated
	sc.out[b] = c
	paths := sc.maximalPaths()
	if len(paths) != 2 {
		t.Fatalf("paths = %d, want 2", len(paths))
	}
	for _, p := range paths {
		switch p[0] {
		case a:
			if len(p) != 3 || p[2] != c {
				t.Fatalf("chain path wrong: %v", p)
			}
		case d:
			if len(p) != 1 {
				t.Fatalf("singleton path wrong: %v", p)
			}
		default:
			t.Fatalf("unexpected path start")
		}
	}
}

// TestAsyncPrewarmPerShard pins WithAsyncPrewarm's per-shard guarantee:
// every shard's free list gets the full n request nodes (each with its
// reusable cap-1 grant channel) and the dispatcher pool's full worker
// complement is spawned eagerly, so the submit side of a stripe's very
// first request allocates nothing. The pre-fix round-robin left shards
// with no nodes whenever n < Shards(), silently breaking the
// first-request claim on the unwarmed stripes.
func TestAsyncPrewarmPerShard(t *testing.T) {
	const shards, n = 8, 3
	tbl := NewLockTable(shards, 2, WithAsyncPrewarm(n))
	defer tbl.Close()
	for i := range tbl.shards {
		sh := &tbl.shards[i]
		count := 0
		sh.reqMu.Lock()
		for r := sh.reqFree; r != nil; r = r.next {
			if r.ch == nil || cap(r.ch) != 1 {
				sh.reqMu.Unlock()
				t.Fatalf("shard %d: prewarmed node without a usable grant channel", i)
			}
			count++
		}
		sh.reqMu.Unlock()
		if count != n {
			t.Fatalf("shard %d prewarmed %d request nodes, want %d on every shard", i, count, n)
		}
	}
	if got, want := tbl.exec.spawned.Load(), tbl.exec.bound; got != want {
		t.Fatalf("prewarm spawned %d pool workers, want the full bound %d", got, want)
	}
	if got, want := tbl.exec.idle.Load(), tbl.exec.bound; got != want {
		t.Fatalf("prewarm left %d workers claimable, want all %d idle", got, want)
	}
	// Let the eagerly-spawned workers reach their run-queue receives
	// (blocking there may allocate the runtime's wait records) so the
	// measurement below sees only the request-node path.
	time.Sleep(20 * time.Millisecond)
	if avg := testing.AllocsPerRun(50, func() {
		for i := range tbl.shards {
			r := tbl.shards[i].getReq()
			tbl.shards[i].putReq(r)
		}
	}); avg != 0 {
		t.Fatalf("prewarmed request-node path allocs = %v, want 0", avg)
	}
}

// TestPaddedLayout pins the cache-line padding contract of the hot shared
// arrays: one slot must never share a (prefetcher-paired) line with its
// neighbor. If a field is added to one of these types, grow its pad.
func TestPaddedLayout(t *testing.T) {
	if s := unsafe.Sizeof(paddedInt32{}); s%cacheLineSize != 0 {
		t.Errorf("paddedInt32 size %d not a multiple of %d", s, cacheLineSize)
	}
	if s := unsafe.Sizeof(paddedInt64{}); s%cacheLineSize != 0 {
		t.Errorf("paddedInt64 size %d not a multiple of %d", s, cacheLineSize)
	}
	if s := unsafe.Sizeof(paddedUint64{}); s%cacheLineSize != 0 {
		t.Errorf("paddedUint64 size %d not a multiple of %d", s, cacheLineSize)
	}
	if s := unsafe.Sizeof(paddedQnodePtr{}); s%cacheLineSize != 0 {
		t.Errorf("paddedQnodePtr size %d not a multiple of %d", s, cacheLineSize)
	}
	if s := unsafe.Sizeof(rlockNode{}); s%cacheLineSize != 0 {
		t.Errorf("rlockNode size %d not a multiple of %d", s, cacheLineSize)
	}
	if s := unsafe.Sizeof(portFree{}); s%cacheLineSize != 0 {
		t.Errorf("portFree size %d not a multiple of %d", s, cacheLineSize)
	}
	// MCSMutex's write-hot tail and enq share one line, apart from the
	// read-mostly header before them and from whatever follows the lock.
	var m MCSMutex
	if off := unsafe.Offsetof(m.tail); off%cacheLineSize != 0 {
		t.Errorf("MCSMutex.tail at offset %d, not on a %d-byte line", off, cacheLineSize)
	}
	if unsafe.Offsetof(m.enq) != unsafe.Offsetof(m.tail)+unsafe.Sizeof(m.tail) {
		t.Errorf("MCSMutex.enq does not follow tail on its line")
	}
	if s := unsafe.Sizeof(m); s%cacheLineSize != 0 {
		t.Errorf("MCSMutex size %d not a multiple of %d", s, cacheLineSize)
	}
	// A stripe is exactly two cache lines on 64-bit targets, so the
	// shard array keeps each stripe's write-hot acquires counter at one
	// fixed place relative to its read-mostly header. A 136-byte stripe
	// (one field more) measured +8% hotspot release p99 and +9% crash
	// acquire and release p99 on the repository benchmark, with the hot
	// paths compiling to the same code; measure a new field before
	// growing the struct.
	if unsafe.Sizeof(uintptr(0)) == 8 {
		if s := unsafe.Sizeof(lockShard{}); s != 128 {
			t.Errorf("lockShard size %d, want 128", s)
		}
	}
}

// TestTreeLayout pins TreeMutex's memory layout: the per-process phase
// words must occupy one full padded cache line each (so neighboring
// processes' passage bookkeeping cannot false-share), and the per-process
// path table rows must exist for every (proc, level).
func TestTreeLayout(t *testing.T) {
	tm := NewTree(9)
	if s := unsafe.Sizeof(tm.phase[0]); s%cacheLineSize != 0 {
		t.Errorf("phase element size %d not a multiple of %d", s, cacheLineSize)
	}
	// The stride between adjacent phase words is the padded element size:
	// no two processes' phase words may share a line pair.
	stride := uintptr(unsafe.Pointer(&tm.phase[1])) - uintptr(unsafe.Pointer(&tm.phase[0]))
	if stride != unsafe.Sizeof(paddedInt64{}) {
		t.Errorf("phase stride %d, want %d", stride, unsafe.Sizeof(paddedInt64{}))
	}
	if stride < cacheLineSize {
		t.Errorf("phase stride %d below cache line %d", stride, cacheLineSize)
	}
	if len(tm.path) != tm.n {
		t.Fatalf("path table has %d rows, want %d", len(tm.path), tm.n)
	}
	for p, row := range tm.path {
		if len(row) != tm.levels {
			t.Fatalf("path[%d] has %d steps, want %d", p, len(row), tm.levels)
		}
	}
}

// TestTreePathTable cross-checks the precomputed path table against the
// position arithmetic it replaced: node index proc/arity^(l+1), port
// (proc/arity^l) mod arity.
func TestTreePathTable(t *testing.T) {
	for _, n := range []int{1, 2, 3, 9, 16, 64, 100} {
		tm := NewTree(n)
		for p := 0; p < n; p++ {
			div := 1
			for l := 0; l < tm.levels; l++ {
				wantNode := tm.nodes[l][p/(div*tm.arity)]
				wantPort := (p / div) % tm.arity
				got := tm.path[p][l]
				if got.m != wantNode || got.port != wantPort {
					t.Fatalf("n=%d path[%d][%d] = (%p,%d), want (%p,%d)",
						n, p, l, got.m, got.port, wantNode, wantPort)
				}
				div *= tm.arity
			}
		}
	}
}

// waitUntil polls cond until it holds, failing the test after d.
func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestMCSRelinkAfterGrant pins MCS recovery's re-link against a
// predecessor that grants the recovering passage and starts a new one
// between the recovery's phase read and its re-link. The stale link must
// not land in the predecessor's new passage: that passage's release would
// then "grant" a dead ref and leave tail on its own ref, and every later
// arrival would fail its link CAS forever.
func TestMCSRelinkAfterGrant(t *testing.T) {
	m := NewMCS(3)
	m.Lock(0)
	// Port 1 queues behind port 0, links, and is cancelled: left in
	// mcsWait, linked.
	cancel := make(chan struct{})
	queued := make(chan bool)
	go func() { queued <- m.LockDone(1, cancel) }()
	waitUntil(t, 2*time.Second, "port 1 to link behind port 0", func() bool {
		return m.nodes[0].next.Load() != 0
	})
	close(cancel)
	if <-queued {
		t.Fatal("port 1 acquired while port 0 held the lock")
	}
	if ph := m.nodes[1].word.Load() & mcsPhaseMask; ph != mcsWait {
		t.Fatalf("cancelled port 1 in phase %d, want mcsWait", ph)
	}

	// Port 1's recovery parks between its phase read and its re-link.
	relinker := mcsRef(1, m.nodes[1].word.Load()>>mcsPhaseBits)
	parked, resume := make(chan struct{}), make(chan struct{})
	m.SetCrashFunc(func(port int, point string) bool {
		if port == 1 && point == "M.relink" {
			close(parked)
			<-resume
		}
		return false
	})
	recovered := make(chan struct{})
	go func() {
		m.Lock(1)
		close(recovered)
	}()
	select {
	case <-parked:
	case <-time.After(2 * time.Second):
		t.Fatal("port 1's recovery never reached M.relink")
	}

	// Port 0 unlocks, granting port 1, and locks again: it queues behind
	// port 1, or waits for the descriptor if the parked recovery holds it.
	m.Unlock(0)
	relocked := make(chan struct{})
	go func() {
		m.Lock(0)
		close(relocked)
	}()
	waitUntil(t, 2*time.Second, "port 0 to queue again", func() bool {
		ph := m.nodes[0].word.Load() & mcsPhaseMask
		return ph == mcsWait || ph == mcsEnq && m.enq.Load() == relinker
	})
	close(resume)
	select {
	case <-recovered:
	case <-time.After(2 * time.Second):
		t.Fatal("port 1's recovery never returned")
	}
	m.SetCrashFunc(nil)
	m.Unlock(1)
	select {
	case <-relocked:
	case <-time.After(2 * time.Second):
		t.Fatal("port 0 never re-acquired")
	}
	m.Unlock(0)

	timeout := make(chan struct{})
	timer := time.AfterFunc(2*time.Second, func() { close(timeout) })
	defer timer.Stop()
	if !m.LockDone(2, timeout) {
		t.Fatalf("port 2 hung: tail=%#x nodes[0].next=%#x", m.tail.Load(), m.nodes[0].next.Load())
	}
	m.Unlock(2)
}
