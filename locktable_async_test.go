package rme_test

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	rme "github.com/rmelib/rme"
	"github.com/rmelib/rme/internal/xrand"
)

// keysOnStripe returns n distinct keys all mapping to the given stripe.
func keysOnStripe(tbl *rme.LockTable, stripe, n int) []uint64 {
	out := make([]uint64, 0, n)
	for k := uint64(1); len(out) < n; k++ {
		if tbl.ShardIndex(k) == stripe {
			out = append(out, k)
		}
	}
	return out
}

// keysOnDistinctStripes returns n keys mapping to n distinct stripes, in
// ascending ShardIndex order.
func keysOnDistinctStripes(tbl *rme.LockTable, n int) []uint64 {
	byStripe := make(map[int]uint64)
	for k := uint64(1); len(byStripe) < n; k++ {
		s := tbl.ShardIndex(k)
		if _, ok := byStripe[s]; !ok {
			byStripe[s] = k
		}
	}
	out := make([]uint64, 0, n)
	for s := 0; len(out) < n; s++ {
		if k, ok := byStripe[s]; ok {
			out = append(out, k)
		}
	}
	return out
}

func TestLockAsyncBasic(t *testing.T) {
	tbl := rme.NewLockTable(4, 2, rme.WithTableSeed(1))
	defer tbl.Close()
	const key = 42
	g := <-tbl.LockAsync(key)
	if g.Key() != key {
		t.Fatalf("grant key = %d, want %d", g.Key(), key)
	}
	if !tbl.Held(key) {
		t.Fatal("key not held while granted")
	}
	g.Unlock()
	if tbl.Held(key) || !tbl.Quiesced() {
		t.Fatal("grant Unlock did not release the key")
	}

	sk := rme.StringKey("users/alice")
	gs := <-tbl.LockAsync(sk)
	if !tbl.Held(sk) {
		t.Fatal("string grant not held")
	}
	gs.Unlock()
	if !tbl.Quiesced() {
		t.Fatal("string grant left ports in use")
	}
}

// TestLockAsyncFIFO: grants on one stripe are delivered in submission
// order, and a grant is only delivered once the previous holder released.
func TestLockAsyncFIFO(t *testing.T) {
	tbl := rme.NewLockTable(1, 4, rme.WithTableSeed(1))
	defer tbl.Close()
	const n = 8
	var order []int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		// Submit from one goroutine so the submission order is defined;
		// receive concurrently.
		ch := tbl.LockAsync(uint64(100 + i))
		wg.Add(1)
		go func(i int, ch <-chan rme.Grant) {
			defer wg.Done()
			g := <-ch
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
			g.Unlock()
		}(i, ch)
	}
	wg.Wait()
	for i, got := range order {
		if got != i {
			t.Fatalf("grant order %v, want FIFO", order)
		}
	}
	if !tbl.Quiesced() {
		t.Fatal("table not quiesced")
	}
}

func TestLockAsyncFunc(t *testing.T) {
	tbl := rme.NewLockTable(4, 2, rme.WithTableSeed(1))
	defer tbl.Close()
	done := make(chan uint64, 1)
	tbl.LockAsyncFunc(7, func(g rme.Grant) {
		held := tbl.Held(7)
		g.Unlock()
		if !held {
			t.Error("callback ran without holding the key")
		}
		done <- g.Key()
	})
	select {
	case k := <-done:
		if k != 7 {
			t.Fatalf("callback key = %d, want 7", k)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("callback never ran")
	}
	if !tbl.Quiesced() {
		t.Fatal("table not quiesced after callback")
	}
}

// TestLockAsyncMutualExclusionStress mixes async and sync acquirers over
// a small arena, against both shard backends; the per-key referee must
// never see two holders.
func TestLockAsyncMutualExclusionStress(t *testing.T) {
	backendMatrix(t, func(t *testing.T, backend rme.ShardBackend) {
		const workers, iters, keys = 12, 200, 32
		tbl := rme.NewLockTable(4, 4, rme.WithTableSeed(7),
			rme.WithShardBackend(backend))
		defer tbl.Close()
		var inside [keys]atomic.Int32
		counters := [keys]int{} // guarded by the keyed lock
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := xrand.New(uint64(w) + 1)
				for i := 0; i < iters; i++ {
					k := rng.Uint64() % keys
					crit := func() {
						if inside[k].Add(1) != 1 {
							t.Errorf("two holders of key %d", k)
						}
						counters[k]++
						inside[k].Add(-1)
					}
					if w%2 == 0 {
						g := <-tbl.LockAsync(k)
						crit()
						g.Unlock()
					} else {
						tbl.Lock(k)
						crit()
						tbl.Unlock(k)
					}
				}
			}(w)
		}
		wg.Wait()
		total := 0
		for k := range counters {
			total += counters[k]
		}
		if total != workers*iters {
			t.Fatalf("counter sum = %d, want %d", total, workers*iters)
		}
		if !tbl.Quiesced() {
			t.Fatal("table not quiesced after the stress")
		}
	})
}

// TestLockAsyncGrantSurvivesGranteeCrash is the regression test for grant
// ownership under requester death: a worker that dies between LockAsync
// and the receive leaves the grant parked in the channel — not lost. Its
// supervisor drains the channel, abandons the grant, and the tenancy
// surfaces as an orphan for the ordinary reclaim sweep.
func TestLockAsyncGrantSurvivesGranteeCrash(t *testing.T) {
	tbl := rme.NewLockTable(2, 2, rme.WithTableSeed(3))
	defer tbl.Close()
	const key = 9001
	var ch <-chan rme.Grant
	// The worker: submits, then dies before receiving.
	func() {
		defer func() {
			if _, ok := rme.AsCrash(recover()); !ok {
				t.Fatal("worker death did not propagate as a Crash")
			}
		}()
		ch = tbl.LockAsync(key)
		panic(rme.Crash{Point: "worker died before receiving its grant"})
	}()
	// The grant is delivered regardless — the dispatcher does not know the
	// requester died — and holds the stripe.
	var g rme.Grant
	select {
	case g = <-ch:
	case <-time.After(10 * time.Second):
		t.Fatal("grant lost after requester crash")
	}
	if !tbl.Held(key) {
		t.Fatal("delivered grant does not hold the key")
	}
	if tbl.Orphans() != 0 {
		t.Fatal("orphan before the supervisor abandoned the grant")
	}
	// The supervisor's move: abandon the dead requester's grant. The
	// tenancy must surface via Orphans and be recoverable by Reclaim.
	g.Abandon()
	if got := tbl.Orphans(); got != 1 {
		t.Fatalf("Orphans = %d after Abandon, want 1", got)
	}
	if got := tbl.Reclaim(); got != 1 {
		t.Fatalf("Reclaim = %d, want 1", got)
	}
	if tbl.Held(key) || !tbl.Quiesced() {
		t.Fatal("stripe not recovered after abandon + reclaim")
	}
	tbl.Lock(key) // the stripe must be fully usable again
	tbl.Unlock(key)
}

// TestLockAsyncFuncCrashOrphans: a grant callback that dies with a Crash
// panic orphans its tenancy and the dispatcher survives to serve the next
// request.
func TestLockAsyncFuncCrashOrphans(t *testing.T) {
	tbl := rme.NewLockTable(2, 2, rme.WithTableSeed(3))
	defer tbl.Close()
	const key = 512
	delivered := make(chan struct{})
	tbl.LockAsyncFunc(key, func(g rme.Grant) {
		close(delivered)
		panic(rme.Crash{Point: "callback died holding its grant"})
	})
	<-delivered
	waitUntil(t, "orphan surfacing", func() bool { return tbl.Orphans() == 1 })
	if got := tbl.Reclaim(); got != 1 {
		t.Fatalf("Reclaim = %d, want 1", got)
	}
	// The dispatcher must still be alive: a fresh request on the same
	// stripe completes.
	g := <-tbl.LockAsync(key)
	g.Unlock()
	if !tbl.Quiesced() {
		t.Fatal("table not quiesced")
	}
}

// TestLockAsyncSubmitCloseRace is the regression storm for the
// dispatcher-exit stranding race: a LockAsync whose closed check passes
// concurrently with Close() used to push onto an inbox the dispatcher had
// already drained for the last time, leaving the request granted never —
// no grant, no panic. Post-fix, every submission that survives the closed
// check must end in a delivered grant (Close waits for it to schedule its
// stripe before releasing the pool); submissions that observe closed
// panic as documented. Run under -race: the bug is a pure interleaving
// window.
func TestLockAsyncSubmitCloseRace(t *testing.T) {
	// The stranding window is a submitter preempted between its closed
	// check and its inbox push while Close and the dispatcher's exit land
	// in between; widen it with real parallelism and a hot single-stripe
	// inbox whose CAS contention stretches exactly that window.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	rounds := 200
	if testing.Short() {
		rounds = 40
	}
	const workers = 16
	for round := 0; round < rounds; round++ {
		tbl := rme.NewLockTable(1, 4, rme.WithTableSeed(uint64(round)+1))
		start := make(chan struct{})
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				defer func() {
					// The documented closed-table panic is the legal end of
					// each worker's storm; anything else is a real failure.
					if r := recover(); r != nil {
						if s, ok := r.(string); !ok || !strings.Contains(s, "closed LockTable") {
							panic(r)
						}
					}
				}()
				<-start
				// Submit continuously until Close stops intake. Receive in
				// the submitting goroutine: grants must be settled as they
				// arrive, because an unreceived grant legitimately holds its
				// stripe and would stall the requests queued behind it — the
				// stranding this test hunts is a request whose grant never
				// arrives at all.
				for i := 0; ; i++ {
					select {
					case g := <-tbl.LockAsync(uint64(w*1000 + i)):
						g.Unlock()
					case <-time.After(10 * time.Second):
						t.Errorf("round %d: worker %d request %d stranded after Close", round, w, i)
						return
					}
				}
			}(w)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			// Let the storm get hot before pulling the plug, with a little
			// per-round variation so the close lands at different phases of
			// the submit/dispatch pipeline across rounds.
			time.Sleep(time.Duration(50+round%7*37) * time.Microsecond)
			tbl.Close()
		}()
		close(start)
		wg.Wait()
		if t.Failed() {
			return
		}
		if !tbl.Quiesced() {
			t.Fatalf("round %d: table not quiesced after the storm", round)
		}
	}
}

func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestLockTableClose(t *testing.T) {
	tbl := rme.NewLockTable(2, 2, rme.WithTableSeed(1))
	g := <-tbl.LockAsync(1)
	tbl.Close()
	tbl.Close() // idempotent
	// Outstanding grants stay valid across Close.
	g.Unlock()
	// Sync paths unaffected.
	tbl.Lock(2)
	tbl.Unlock(2)
	expired, cancelExpired := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancelExpired()
	live, cancelLive := context.WithCancel(context.Background())
	defer cancelLive()
	for _, fn := range []func(){
		func() { tbl.LockAsync(1) },
		func() { tbl.LockAsyncContext(expired, 1) },
		func() { tbl.LockAsyncContext(live, 1) },
		func() { tbl.LockAsyncFunc(1, func(rme.Grant) {}) },
		func() { tbl.LockBatch([]uint64{1}) },
		func() { tbl.LockBatchContext(live, []uint64{1}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("async call on closed table did not panic")
				}
			}()
			fn()
		}()
	}
	if !tbl.Quiesced() {
		t.Fatal("table not quiesced")
	}
}

// TestLockAsyncZeroAlloc pins the tentpole's allocation claim for the
// async path on both shard backends: a warm crash-free LockAsync →
// receive → Unlock passage allocates nothing.
func TestLockAsyncZeroAlloc(t *testing.T) {
	backendMatrix(t, func(t *testing.T, backend rme.ShardBackend) {
		tbl := rme.NewLockTable(4, 8, rme.WithTableSeed(5),
			rme.WithAsyncPrewarm(4), rme.WithShardBackend(backend))
		defer tbl.Close()
		const key = 77
		for i := 0; i < 8; i++ { // warm pools, dispatcher, park channels
			g := <-tbl.LockAsync(key)
			g.Unlock()
		}
		if avg := testing.AllocsPerRun(200, func() {
			g := <-tbl.LockAsync(key)
			g.Unlock()
		}); avg != 0 {
			t.Fatalf("async keyed passage allocs = %v, want 0", avg)
		}
	})
}

func TestLockBatchBasics(t *testing.T) {
	tbl := rme.NewLockTable(8, 2, rme.WithTableSeed(1))
	defer tbl.Close()
	keys := keysOnDistinctStripes(tbl, 3)
	keys = append(keys, keysOnStripe(tbl, tbl.ShardIndex(keys[0]), 2)...) // same-stripe run
	b := tbl.LockBatch(keys)
	if b.Len() != len(keys) {
		t.Fatalf("batch Len = %d, want %d", b.Len(), len(keys))
	}
	// Keys come back sorted by stripe, and every distinct stripe is held
	// by exactly one tenancy: InUse over the table equals distinct stripes.
	stripes := map[int]bool{}
	for _, k := range keys {
		stripes[tbl.ShardIndex(k)] = true
	}
	held := 0
	for s := 0; s < tbl.Shards(); s++ {
		if stripes[s] {
			held++
		}
	}
	if got := tbl.InUse(); got != held {
		t.Fatalf("batch holds %d tenancies, want one per stripe = %d", got, held)
	}
	prev := -1
	for _, k := range b.Keys() {
		s := tbl.ShardIndex(k)
		if s < prev {
			t.Fatalf("batch keys not in ascending stripe order: %v", b.Keys())
		}
		prev = s
	}
	// A rival on a batched stripe must be excluded until Unlock.
	entered, released := make(chan struct{}), make(chan struct{})
	go func() {
		tbl.Lock(keys[0])
		close(entered)
		tbl.Unlock(keys[0])
		close(released)
	}()
	select {
	case <-entered:
		t.Fatal("batch did not exclude a same-stripe rival")
	case <-time.After(50 * time.Millisecond):
	}
	b.Unlock()
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("rival starved after batch release")
	}
	<-released // the rival's Unlock, not just its entry, precedes the probe
	if !tbl.Quiesced() {
		t.Fatal("table not quiesced after batch")
	}
}

func TestLockBatchString(t *testing.T) {
	tbl := rme.NewLockTable(4, 2, rme.WithTableSeed(2))
	defer tbl.Close()
	names := []string{"acct/a", "acct/b", "acct/c"}
	var keys []uint64
	for _, n := range names {
		keys = append(keys, rme.StringKey(n))
	}
	b := tbl.LockBatch(keys)
	// Each stripe's tenancy registers its run's first digest: exactly the
	// representative keys report Held (the documented batch Held
	// contract).
	prev := -1
	for _, k := range b.Keys() {
		if s := tbl.ShardIndex(k); s != prev {
			if !tbl.Held(k) {
				t.Errorf("representative key %#x of stripe %d not held", k, s)
			}
			prev = s
		}
	}
	// Every name's stripe is excluded regardless of which digest is
	// registered.
	entered, released := make(chan struct{}), make(chan struct{})
	go func() {
		tbl.Lock(keys[1])
		close(entered)
		tbl.Unlock(keys[1])
		close(released)
	}()
	select {
	case <-entered:
		t.Fatal("string batch did not exclude a batched name")
	case <-time.After(50 * time.Millisecond):
	}
	b.Unlock()
	select {
	case <-entered:
	case <-time.After(10 * time.Second):
		t.Fatal("rival starved after string batch release")
	}
	<-released // the rival's Unlock, not just its entry, precedes the probe
	if !tbl.Quiesced() {
		t.Fatal("table not quiesced after string batch")
	}
}

// TestLockBatchSameStripeCoalesce pins the amortization structure: a
// batch of many same-stripe keys is one tenancy (one lease, one queue
// entry), not one per key.
func TestLockBatchSameStripeCoalesce(t *testing.T) {
	tbl := rme.NewLockTable(4, 2, rme.WithTableSeed(9))
	defer tbl.Close()
	keys := keysOnStripe(tbl, 2, 8)
	b := tbl.LockBatch(keys)
	if got := tbl.InUse(); got != 1 {
		t.Fatalf("8 same-stripe keys hold %d tenancies, want 1", got)
	}
	b.Unlock()
	if !tbl.Quiesced() {
		t.Fatal("table not quiesced")
	}
}

// TestLockBatchCrashMidAcquire: a worker that dies acquiring the Nth
// stripe of a batch orphans exactly the stripes it held — the earlier
// fully-acquired ones plus the one whose Lock was interrupted — and a
// sweep makes the table whole.
func TestLockBatchCrashMidAcquire(t *testing.T) {
	labelMatrix(t, func(t *testing.T, backend rme.ShardBackend, l crashLabels) {
		tbl := rme.NewLockTable(8, 2, rme.WithTableSeed(4), rme.WithShardBackend(backend))
		defer tbl.Close()
		keys := keysOnDistinctStripes(tbl, 4)
		// Crash at the third stripe's enqueue: count fresh-passage enqueue
		// steps.
		var enqueues atomic.Int32
		tbl.SetCrashFunc(func(port int, point string) bool {
			return point == l.enqueue && enqueues.Add(1) == 3
		})
		func() {
			defer func() {
				if _, ok := rme.AsCrash(recover()); !ok {
					t.Fatal("expected the injected mid-batch crash")
				}
			}()
			tbl.LockBatch(keys)
		}()
		tbl.SetCrashFunc(nil)
		// Held stripes at death: #1 and #2 in their CS, #3 mid-Lock. #4
		// never reached.
		if got := tbl.Orphans(); got != 3 {
			t.Fatalf("Orphans = %d after mid-batch crash, want exactly the 3 held stripes", got)
		}
		if got := tbl.Reclaim(); got != 3 {
			t.Fatalf("Reclaim = %d, want 3", got)
		}
		if !tbl.Quiesced() {
			t.Fatal("table not quiesced after the sweep")
		}
		b := tbl.LockBatch(keys) // every stripe must be fully usable again
		b.Unlock()
	})
}

// TestLockBatchCrashMidRelease: a death inside Batch.Unlock orphans the
// interrupted stripe and every not-yet-released one; the sweep completes
// the releases.
func TestLockBatchCrashMidRelease(t *testing.T) {
	labelMatrix(t, func(t *testing.T, backend rme.ShardBackend, l crashLabels) {
		tbl := rme.NewLockTable(8, 2, rme.WithTableSeed(4), rme.WithShardBackend(backend))
		defer tbl.Close()
		keys := keysOnDistinctStripes(tbl, 3)
		b := tbl.LockBatch(keys)
		var exits atomic.Int32
		tbl.SetCrashFunc(func(port int, point string) bool {
			return point == l.inCS && exits.Add(1) == 2 // die starting the 2nd release
		})
		func() {
			defer func() {
				if _, ok := rme.AsCrash(recover()); !ok {
					t.Fatal("expected the injected mid-release crash")
				}
			}()
			b.Unlock()
		}()
		tbl.SetCrashFunc(nil)
		if got := tbl.Orphans(); got != 2 {
			t.Fatalf("Orphans = %d after mid-release crash, want the 2 unreleased stripes", got)
		}
		if got := tbl.Reclaim(); got != 2 {
			t.Fatalf("Reclaim = %d, want 2", got)
		}
		if !tbl.Quiesced() {
			t.Fatal("table not quiesced after the sweep")
		}
	})
}

// TestDoBatchExactlyOnceUnderCrashStorm: DoBatch's supervisor loop keeps
// the exactly-once-per-key guarantee under random injected deaths,
// duplicates included — against both shard backends, since a batch death
// orphans several stripes whose parallel recovery must hold for each lock
// shape.
func TestDoBatchExactlyOnceUnderCrashStorm(t *testing.T) {
	backendMatrix(t, func(t *testing.T, backend rme.ShardBackend) {
		const workers, iters, keys, batch = 8, 60, 64, 6
		tbl := rme.NewLockTable(4, 3, rme.WithTableSeed(11),
			rme.WithShardBackend(backend))
		defer tbl.Close()
		var calls atomic.Uint64
		var crashed atomic.Int64
		tbl.SetCrashFunc(func(port int, point string) bool {
			if xrand.Mix64(calls.Add(1))%311 == 0 {
				crashed.Add(1)
				return true
			}
			return false
		})
		counters := make([]atomic.Int64, keys)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				rng := xrand.New(uint64(w)*977 + 1)
				buf := make([]uint64, batch)
				for i := 0; i < iters; i++ {
					for j := range buf {
						buf[j] = rng.Uint64() % keys
					}
					buf[0] = buf[batch-1] // force a duplicate
					tbl.DoBatch(buf, func(k uint64) { counters[k].Add(1) })
				}
			}(w)
		}
		wg.Wait()
		tbl.SetCrashFunc(nil)
		tbl.Reclaim()
		if got := tbl.Orphans(); got != 0 {
			t.Fatalf("%d orphans left after the final sweep", got)
		}
		if !tbl.Quiesced() {
			t.Fatal("table not quiesced after the storm")
		}
		var total int64
		for k := range counters {
			total += counters[k].Load()
		}
		if want := int64(workers) * iters * batch; total != want {
			t.Fatalf("fn ran %d times, want exactly %d", total, want)
		}
		if crashed.Load() == 0 {
			t.Fatal("storm injected no crashes; recovery paths never exercised")
		}
	})
}

// TestDoBatchZeroAllocAmortized pins the acceptance claim on both shard
// backends: a warm crash-free batch passage allocates nothing, amortized
// over the batch.
func TestDoBatchZeroAllocAmortized(t *testing.T) {
	backendMatrix(t, func(t *testing.T, backend rme.ShardBackend) {
		tbl := rme.NewLockTable(4, 8, rme.WithTableSeed(5),
			rme.WithShardBackend(backend))
		defer tbl.Close()
		keys := keysOnStripe(tbl, 1, 8)
		nop := func(uint64) {}
		for i := 0; i < 8; i++ {
			tbl.DoBatch(keys, nop)
		}
		if avg := testing.AllocsPerRun(200, func() {
			tbl.DoBatch(keys, nop)
		}); avg != 0 {
			t.Fatalf("warm batch passage allocs = %v, want 0", avg)
		}
		b := tbl.LockBatch(keys)
		b.Unlock()
		if avg := testing.AllocsPerRun(200, func() {
			tbl.LockBatch(keys).Unlock()
		}); avg != 0 {
			t.Fatalf("warm LockBatch/Unlock allocs = %v, want 0", avg)
		}
	})
}

// TestLockBatchLarge exercises the sort.Sort path (batches past the
// insertion-sort threshold): keys must come back stripe-sorted with one
// tenancy per distinct stripe, and the exactly-once settlement holds.
func TestLockBatchLarge(t *testing.T) {
	tbl := rme.NewLockTable(8, 2, rme.WithTableSeed(13))
	defer tbl.Close()
	rng := xrand.New(99)
	keys := make([]uint64, 100)
	for i := range keys {
		keys[i] = rng.Uint64() % 1000
	}
	b := tbl.LockBatch(keys)
	if b.Len() != len(keys) {
		t.Fatalf("Len = %d, want %d", b.Len(), len(keys))
	}
	stripes := map[int]bool{}
	prev := -1
	prevKey := uint64(0)
	for _, k := range b.Keys() {
		s := tbl.ShardIndex(k)
		if s < prev || (s == prev && k < prevKey) {
			t.Fatalf("batch keys not sorted by (stripe, key)")
		}
		prev, prevKey = s, k
		stripes[s] = true
	}
	if got := tbl.InUse(); got != len(stripes) {
		t.Fatalf("InUse = %d, want one tenancy per stripe = %d", got, len(stripes))
	}
	b.Unlock()
	if !tbl.Quiesced() {
		t.Fatal("table not quiesced after large batch")
	}
}

// TestLockTableDoReclaimInFn: fn may sweep other stripes' orphans from
// inside the critical section (the documented in-CS reclaim contract).
func TestLockTableDoReclaimInFn(t *testing.T) {
	labelMatrix(t, func(t *testing.T, backend rme.ShardBackend, l crashLabels) {
		tbl := rme.NewLockTable(8, 2, rme.WithTableSeed(6), rme.WithShardBackend(backend))
		defer tbl.Close()
		keys := keysOnDistinctStripes(tbl, 2)
		orphanKey, doKey := keys[0], keys[1]
		// Manufacture an orphan on the first stripe: die inside Unlock.
		tbl.Lock(orphanKey)
		tbl.SetCrashFunc(func(port int, point string) bool { return point == l.inCS })
		func() {
			defer func() {
				if _, ok := rme.AsCrash(recover()); !ok {
					t.Fatal("expected the injected crash")
				}
			}()
			tbl.Unlock(orphanKey)
		}()
		tbl.SetCrashFunc(nil)
		if tbl.Orphans() != 1 {
			t.Fatalf("Orphans = %d, want 1", tbl.Orphans())
		}
		ran := false
		tbl.Do(doKey, func() {
			ran = true
			if got := tbl.Reclaim(); got != 1 {
				t.Errorf("in-CS Reclaim = %d, want 1", got)
			}
		})
		if !ran {
			t.Fatal("fn never ran")
		}
		if tbl.Orphans() != 0 || !tbl.Quiesced() {
			t.Fatal("orphan not recovered by the in-CS sweep")
		}
		tbl.Lock(orphanKey) // the swept stripe must be fully usable
		tbl.Unlock(orphanKey)
	})
}

// TestLockTableNestedDoDistinctStripes: nesting Do on distinct stripes in
// ascending ShardIndex order is the documented safe pattern.
func TestLockTableNestedDoDistinctStripes(t *testing.T) {
	tbl := rme.NewLockTable(8, 2, rme.WithTableSeed(6))
	defer tbl.Close()
	keys := keysOnDistinctStripes(tbl, 3)
	depth := 0
	tbl.Do(keys[0], func() {
		tbl.Do(keys[1], func() {
			tbl.Do(keys[2], func() {
				depth = 3
				for _, k := range keys {
					if !tbl.Held(k) {
						t.Errorf("key %d not held at full nesting depth", k)
					}
				}
			})
		})
	})
	if depth != 3 {
		t.Fatal("nesting never reached depth 3")
	}
	if !tbl.Quiesced() {
		t.Fatal("table not quiesced after nested Do")
	}
}
