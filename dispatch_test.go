package rme_test

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	rme "github.com/rmelib/rme"
)

// Tests for the shared dispatcher runtime (dispatch.go): the bounded
// executor the async tier multiplexes every stripe's delivery work onto.
// The names all start with TestDispatch so the CI race matrix's keyed
// regex picks the whole file up.

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestDispatchQuiescedPendingDelivery is the quiesce-reasoning regression
// test (the same class of bug as the inbox-depth fix
// TestSupervisorQuiescedInboxDepth pins, one window later): an async
// request that has been swapped out of its stripe's inbox but whose
// delivery has not yet acquired a lease holds nothing the old Quiesced()
// could see — InUse() was 0 and the inbox depth had already been
// decremented at swap time — so the table reported quiescent with a grant
// still owed. The fix keeps each request in its stripe's pending count
// until its delivery holds the lease (or sheds), closing the window: at
// every instant a submitted-but-unsettled request is visible through
// InboxDepth or InUse.
//
// The window is pinned deterministically on a one-worker pool: two
// requests are queued on stripe A while the only worker is wedged on
// stripe B, so releasing the wedge makes the worker swap both in one
// batch; the first is a callback that settles its grant and then blocks,
// which parks the worker with the second request swapped, holding no
// lease, and not yet delivered.
func TestDispatchQuiescedPendingDelivery(t *testing.T) {
	tbl := rme.NewLockTable(2, 2, rme.WithTableSeed(1), rme.WithDispatcherPool(1))
	defer tbl.Close()
	keys := distinctStripeKeys(t, tbl, 2)
	a, b := keys[0], keys[1]
	sa := tbl.ShardIndex(a)

	// settleThenBlock settles its grant, so the tenancy leaves InUse, then
	// holds the pool's only worker until release closes.
	settleThenBlock := func(entered, release chan struct{}) func(rme.Grant) {
		return func(g rme.Grant) {
			g.Unlock()
			close(entered)
			<-release
		}
	}

	// Wedge the only worker on stripe B.
	bEntered, bRelease := make(chan struct{}), make(chan struct{})
	tbl.LockAsyncFunc(b, settleThenBlock(bEntered, bRelease))
	<-bEntered

	// Queue a settle-then-block callback and a channel request on stripe A
	// behind the wedge.
	aEntered, aRelease := make(chan struct{}), make(chan struct{})
	tbl.LockAsyncFunc(a, settleThenBlock(aEntered, aRelease))
	ch := tbl.LockAsync(a)
	if d := tbl.Stats().Shards[sa].InboxDepth; d != 2 {
		t.Fatalf("InboxDepth = %d with two requests queued behind the wedge, want 2", d)
	}

	// Release the wedge: the worker swaps A's inbox as one batch, and the
	// first callback settles its grant and blocks.
	close(bRelease)
	<-aEntered

	// The second request is swapped but undelivered.
	if n := tbl.InUse(); n != 0 {
		t.Fatalf("InUse() = %d with every delivered grant settled, want 0", n)
	}
	if d := tbl.Stats().Shards[sa].InboxDepth; d != 1 {
		t.Fatalf("InboxDepth = %d with one swapped-but-undelivered request, want 1", d)
	}
	if tbl.Quiesced() {
		t.Fatal("Quiesced() = true with an async request pending delivery")
	}

	close(aRelease)
	g := <-ch
	if tbl.Quiesced() {
		t.Fatal("Quiesced() = true with an unsettled grant outstanding")
	}
	g.Unlock()
	waitFor(t, 5*time.Second, "table to quiesce after settle", tbl.Quiesced)
}

// TestDispatchGoroutineBound pins the tentpole's footprint claim: an idle
// table with S stripes and WithDispatcherPool(n) holds at most n
// dispatcher goroutines, not S. Every stripe is driven through an async
// passage (under the per-stripe model that would have left 64 parked
// dispatchers behind), then the goroutine delta over the table's lifetime
// is measured once the storm settles.
func TestDispatchGoroutineBound(t *testing.T) {
	const shards, pool = 64, 3
	base := runtime.NumGoroutine()

	tbl := rme.NewLockTable(shards, 2, rme.WithTableSeed(1), rme.WithDispatcherPool(pool))
	var wg sync.WaitGroup
	for k := uint64(0); k < shards*4; k++ {
		wg.Add(1)
		tbl.LockAsyncFunc(k, func(g rme.Grant) {
			g.Unlock()
			wg.Done()
		})
	}
	wg.Wait()
	waitFor(t, 5*time.Second, "table to quiesce", tbl.Quiesced)

	// Transient goroutines (abort fix-ups, test runtime bookkeeping) die
	// down quickly; poll the delta instead of asserting a single racy read.
	waitFor(t, 5*time.Second, "goroutine count to settle within the pool bound", func() bool {
		return runtime.NumGoroutine()-base <= pool
	})

	tbl.Close()
	waitFor(t, 5*time.Second, "workers to wind down after Close", func() bool {
		return runtime.NumGoroutine() <= base
	})
}

// TestDispatchPoolOneStorm drives a 64-stripe async storm through a
// single shared worker: no stripe may starve (every request is granted)
// and the per-submitter FIFO grant order must survive on every stripe —
// the run queue's fairness spill is what makes both hold when one worker
// serves a hot stripe alongside 63 others.
func TestDispatchPoolOneStorm(t *testing.T) {
	const shards, perStripe = 64, 50
	tbl := rme.NewLockTable(shards, 2, rme.WithTableSeed(1), rme.WithDispatcherPool(1))
	defer tbl.Close()

	// One submitter per stripe, each submitting an ordered sequence of
	// callbacks; callbacks run in delivery order, so the recorded sequence
	// per stripe must be exactly 0..perStripe-1.
	order := make([][]int, shards)
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		keys := keysOnStripe(tbl, s, 1)
		wg.Add(1)
		go func(s int, key uint64) {
			defer wg.Done()
			var inner sync.WaitGroup
			for i := 0; i < perStripe; i++ {
				i := i
				inner.Add(1)
				tbl.LockAsyncFunc(key, func(g rme.Grant) {
					order[s] = append(order[s], i)
					g.Unlock()
					inner.Done()
				})
			}
			inner.Wait()
		}(s, keys[0])
	}
	wg.Wait()

	for s := 0; s < shards; s++ {
		if len(order[s]) != perStripe {
			t.Fatalf("stripe %d completed %d grants, want %d", s, len(order[s]), perStripe)
		}
		for i, got := range order[s] {
			if got != i {
				t.Fatalf("stripe %d grant order broken at %d: got request %d", s, i, got)
			}
		}
	}
	waitFor(t, 5*time.Second, "table to quiesce", tbl.Quiesced)
}

// TestDispatchPoolWiderThanStripes runs a pool wider than the stripe
// count: the surplus workers must simply park (never spin, never crash),
// traffic still completes, and the pool never spawns beyond its bound.
func TestDispatchPoolWiderThanStripes(t *testing.T) {
	const shards, pool = 2, 8
	base := runtime.NumGoroutine()
	tbl := rme.NewLockTable(shards, 2, rme.WithTableSeed(1), rme.WithDispatcherPool(pool))

	var wg sync.WaitGroup
	for k := uint64(0); k < 200; k++ {
		wg.Add(1)
		tbl.LockAsyncFunc(k, func(g rme.Grant) {
			g.Unlock()
			wg.Done()
		})
	}
	wg.Wait()
	waitFor(t, 5*time.Second, "table to quiesce", tbl.Quiesced)

	if n := tbl.Stats().Dispatcher.Workers; n > pool {
		t.Fatalf("pool spawned %d workers, bound is %d", n, pool)
	}
	waitFor(t, 5*time.Second, "goroutine count to settle within the pool bound", func() bool {
		return runtime.NumGoroutine()-base <= pool
	})
	tbl.Close()
	waitFor(t, 5*time.Second, "workers to wind down after Close", func() bool {
		return runtime.NumGoroutine() <= base
	})
}

// TestDispatchSubmitCloseRace is the stranding-race storm ported to the
// pooled executor: submissions race Close() while a deliberately tiny
// pool is kept busy, so the rescue path (a submitter whose post-push
// re-check observes closed spawns a transient drainer) runs with every
// worker engaged elsewhere — the configuration where a lost request
// would otherwise park forever. Every submission must either panic (the
// submitter observed the closed table and holds nothing) or be granted.
func TestDispatchSubmitCloseRace(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	const rounds = 100
	for round := 0; round < rounds; round++ {
		// A few stripes over a pool of 2: the close-time drain has to
		// cover stripes no worker is engaged with.
		tbl := rme.NewLockTable(4, 2, rme.WithTableSeed(uint64(round)), rme.WithDispatcherPool(2))

		var granted atomic.Int64
		var wg sync.WaitGroup
		stop := make(chan struct{})
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for k := uint64(0); ; k++ {
					if settleOneAsync(tbl, uint64(w)<<32|k) {
						granted.Add(1)
					} else {
						return // closed-table panic: the legal exit
					}
					select {
					case <-stop:
						return
					default:
					}
				}
			}(w)
		}
		// Let the storm get going, then slam the door mid-flight.
		for granted.Load() < 16 {
			runtime.Gosched()
		}
		tbl.Close()
		close(stop)

		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatalf("round %d: a submission was stranded by Close (no grant, no panic)", round)
		}
		if !tbl.Quiesced() {
			t.Fatalf("round %d: table not quiesced after all submitters settled", round)
		}
	}
}

// settleOneAsync submits one async request and settles its grant,
// reporting false if the submission panicked on a closed table. Any other
// panic is a real failure and propagates.
func settleOneAsync(tbl *rme.LockTable, key uint64) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			if s, isStr := r.(string); !isStr || !strings.Contains(s, "closed LockTable") {
				panic(r)
			}
			ok = false
		}
	}()
	g := <-tbl.LockAsync(key)
	g.Unlock()
	return true
}

// TestDispatchStatsSnapshot sanity-checks the DispatcherStats block: the
// configured bound is reported, workers never exceed it, and the batch
// counter moves when traffic flows.
func TestDispatchStatsSnapshot(t *testing.T) {
	tbl := rme.NewLockTable(8, 2, rme.WithTableSeed(1), rme.WithDispatcherPool(3))
	defer tbl.Close()

	var wg sync.WaitGroup
	for k := uint64(0); k < 64; k++ {
		wg.Add(1)
		tbl.LockAsyncFunc(k, func(g rme.Grant) {
			g.Unlock()
			wg.Done()
		})
	}
	wg.Wait()

	ds := tbl.Stats().Dispatcher
	if ds.PoolSize != 3 {
		t.Fatalf("PoolSize = %d, want 3", ds.PoolSize)
	}
	if ds.Workers < 1 || ds.Workers > 3 {
		t.Fatalf("Workers = %d, want 1..3", ds.Workers)
	}
	if ds.Batches == 0 {
		t.Fatal("Batches = 0 after 64 delivered grants")
	}
	if ds.Engaged < 0 || ds.Engaged > ds.Workers {
		t.Fatalf("Engaged = %d with %d workers", ds.Engaged, ds.Workers)
	}
	if ds.RunQueueDepth < 0 {
		t.Fatalf("RunQueueDepth = %d, want >= 0", ds.RunQueueDepth)
	}
}
