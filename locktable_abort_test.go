package rme_test

import (
	"context"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	rme "github.com/rmelib/rme"
	"github.com/rmelib/rme/internal/xrand"
)

// pollQuiesced waits for the table's background abort fix-ups to drain;
// the cooperative repair runs on its own goroutine, so quiescence after a
// shed is eventual, not immediate.
func pollQuiesced(t *testing.T, tbl *rme.LockTable) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !tbl.Quiesced() {
		if time.Now().After(deadline) {
			t.Fatalf("table did not quiesce: %d tenancies in use, %d orphans",
				tbl.InUse(), tbl.Orphans())
		}
		time.Sleep(time.Millisecond)
	}
}

// sameStripeKeys returns two distinct keys that map to the same stripe.
func sameStripeKeys(tbl *rme.LockTable) (uint64, uint64) {
	k1 := uint64(1)
	for k2 := uint64(2); ; k2++ {
		if tbl.ShardIndex(k2) == tbl.ShardIndex(k1) && k2 != k1 {
			return k1, k2
		}
	}
}

// TestAbortTryLock pins the TryLock contract on every backend: hit on a
// free stripe, miss (not block) on a held one, miss when the lease pool is
// exhausted, and misses counted in neither Aborts nor Timeouts.
func TestAbortTryLock(t *testing.T) {
	backendMatrix(t, func(t *testing.T, backend rme.ShardBackend) {
		tbl := rme.NewLockTable(4, 2, rme.WithTableSeed(11), rme.WithShardBackend(backend))
		defer tbl.Close()
		k1, k2 := sameStripeKeys(tbl)

		if !tbl.TryLock(k1) {
			t.Fatal("TryLock missed a free stripe")
		}
		if !tbl.Held(k1) {
			t.Fatal("Held false after a TryLock hit")
		}
		if tbl.TryLock(k2) {
			t.Fatal("TryLock hit a stripe whose lock is held")
		}
		tbl.Unlock(k1)
		pollQuiesced(t, tbl)

		if !tbl.TryLock(k2) {
			t.Fatal("TryLock missed the stripe after release")
		}
		tbl.Unlock(k2)

		if sk := rme.StringKey("order:42"); !tbl.TryLock(sk) {
			t.Fatal("TryLock of a string key missed a free stripe")
		} else {
			tbl.Unlock(sk)
		}

		if got := tbl.Stats().Total(); got.Aborts != 0 || got.Timeouts != 0 {
			t.Fatalf("TryLock misses were counted as sheds: aborts=%d timeouts=%d",
				got.Aborts, got.Timeouts)
		}
		pollQuiesced(t, tbl)
	})
}

// TestAbortLockContextDeadline pins LockContext on every backend: a
// blocked acquisition gives up at its deadline with DeadlineExceeded, a
// manual cancel reports Canceled, the sheds land in the right ShardStats
// counters, and — the tentpole invariant — the abandoned waiter never
// strands its stripe: after the holder releases, the stripe quiesces on
// its own and serves new passages.
func TestAbortLockContextDeadline(t *testing.T) {
	backendMatrix(t, func(t *testing.T, backend rme.ShardBackend) {
		tbl := rme.NewLockTable(2, 2, rme.WithTableSeed(5), rme.WithShardBackend(backend))
		defer tbl.Close()
		k1, k2 := sameStripeKeys(tbl)

		// Uncancellable context degrades to plain Lock.
		if err := tbl.LockContext(context.Background(), k1); err != nil {
			t.Fatalf("LockContext(Background) = %v", err)
		}

		// Deadline expiry while queued behind the holder.
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
		if err := tbl.LockContext(ctx, k2); err != context.DeadlineExceeded {
			t.Fatalf("blocked LockContext = %v, want DeadlineExceeded", err)
		}
		cancel()

		// Manual cancel while queued.
		ctx2, cancel2 := context.WithCancel(context.Background())
		time.AfterFunc(20*time.Millisecond, cancel2)
		if err := tbl.LockContext(ctx2, k2); err != context.Canceled {
			t.Fatalf("cancelled LockContext = %v, want Canceled", err)
		}

		// Pre-expired context: shed without touching the stripe.
		ctx3, cancel3 := context.WithDeadline(context.Background(), time.Unix(0, 0))
		defer cancel3()
		if err := tbl.LockContext(ctx3, k2); err != context.DeadlineExceeded {
			t.Fatalf("pre-expired LockContext = %v, want DeadlineExceeded", err)
		}

		sh := tbl.Stats().Shards[tbl.ShardIndex(k2)]
		if sh.Timeouts != 2 || sh.Aborts != 1 {
			t.Fatalf("stripe sheds = (timeouts %d, aborts %d), want (2, 1)",
				sh.Timeouts, sh.Aborts)
		}

		tbl.Unlock(k1)
		pollQuiesced(t, tbl) // the aborted waiters self-repair; no Reclaim call

		// The stripe serves new passages afterwards.
		if err := tbl.LockContext(ctx3, rme.StringKey("k")); err == nil {
			t.Fatal("pre-expired LockContext of a string key returned nil")
		}
		tbl.Lock(k2)
		tbl.Unlock(k2)
		pollQuiesced(t, tbl)
	})
}

// TestAbortStrandedStripeHazard reproduces the hazard the cooperative
// abort fix-up exists to prevent, by disabling it: a cancelled waiter
// parked as a plain orphan leaves its dead node in the stripe's queue, so
// after the holder releases, the stripe is stranded — TryLock misses
// forever and the table never quiesces — until a manual Reclaim sweeps it.
// With the fix-up enabled the same sequence heals itself with no sweep.
func TestAbortStrandedStripeHazard(t *testing.T) {
	t.Run("hazard", func(t *testing.T) {
		tbl := rme.NewLockTable(1, 2, rme.WithTableSeed(3))
		defer tbl.Close()
		tbl.SetNoAbortFixup(true)
		k1, k2 := sameStripeKeys(tbl)

		tbl.Lock(k1)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
		defer cancel()
		if err := tbl.LockContext(ctx, k2); err != context.DeadlineExceeded {
			t.Fatalf("LockContext = %v, want DeadlineExceeded", err)
		}
		if got := tbl.Orphans(); got != 1 {
			t.Fatalf("Orphans() = %d, want 1 (the stranded waiter)", got)
		}
		tbl.Unlock(k1)

		// The stripe is stranded: the dead node sits in the queue, so an
		// arrival cannot get through, and nothing repairs it on its own.
		time.Sleep(50 * time.Millisecond)
		if tbl.TryLock(k2) {
			t.Fatal("TryLock hit a stripe stranded by a cancelled waiter")
		}
		if tbl.Quiesced() {
			t.Fatal("stranded table reported quiesced")
		}

		// A manual sweep is the only way out in hazard mode.
		if got := tbl.Reclaim(); got != 1 {
			t.Fatalf("Reclaim() = %d, want 1", got)
		}
		if !tbl.TryLock(k2) {
			t.Fatal("TryLock missed the stripe after the sweep")
		}
		tbl.Unlock(k2)
		pollQuiesced(t, tbl)
	})

	t.Run("fixed", func(t *testing.T) {
		tbl := rme.NewLockTable(1, 2, rme.WithTableSeed(3))
		defer tbl.Close()
		k1, k2 := sameStripeKeys(tbl)

		tbl.Lock(k1)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
		defer cancel()
		if err := tbl.LockContext(ctx, k2); err != context.DeadlineExceeded {
			t.Fatalf("LockContext = %v, want DeadlineExceeded", err)
		}
		tbl.Unlock(k1)

		// No Reclaim: the aborted waiter repairs its own passage.
		pollQuiesced(t, tbl)
		if !tbl.TryLock(k2) {
			t.Fatal("TryLock missed the stripe after the self-repair")
		}
		tbl.Unlock(k2)
		pollQuiesced(t, tbl)
	})
}

// TestAbortReclaimLateOrphan pins a sweep's liveness against orphans that
// appear after its claim phase. A waiter is stranded mid-queue behind a
// granted async request (abort fix-up disabled, so the stranded waiter is
// a plain orphan), and Reclaim claims it: its recovery queues behind the
// grant. The grantee then abandons the grant, orphaning the stripe's
// holder after the sweep's claim. Reclaim must claim and recover that
// holder too. A sweep that only waited for its first claims would block
// forever, and so would every caller that sweeps synchronously — the
// abort storm's 1 ms sweeper, Do, and the dispatcher among them.
func TestAbortReclaimLateOrphan(t *testing.T) {
	backendMatrix(t, func(t *testing.T, backend rme.ShardBackend) {
		tbl := rme.NewLockTable(1, 2, rme.WithTableSeed(3), rme.WithShardBackend(backend))
		defer tbl.Close()
		tbl.SetNoAbortFixup(true)
		k1, k2 := sameStripeKeys(tbl)

		g := <-tbl.LockAsync(k1)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
		defer cancel()
		if err := tbl.LockContext(ctx, k2); err != context.DeadlineExceeded {
			t.Fatalf("LockContext = %v, want DeadlineExceeded", err)
		}

		swept := make(chan int, 1)
		go func() { swept <- tbl.Reclaim() }()
		waitFor(t, 5*time.Second, "the sweep to claim the stranded waiter", func() bool {
			for p := 0; p < tbl.Ports(); p++ {
				if tbl.PortLeaseState(0, p) == rme.LeaseReclaiming {
					return true
				}
			}
			return false
		})
		g.Abandon()

		select {
		case n := <-swept:
			if n != 2 {
				t.Fatalf("Reclaim() = %d, want 2 (the stranded waiter and the abandoned grant)", n)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("Reclaim blocked behind an orphan created after its claim phase")
		}
		pollQuiesced(t, tbl)
		tbl.Lock(k2)
		tbl.Unlock(k2)
	})
}

// TestAbortAsyncGrantRace pins LockAsyncContext's exactly-once settlement
// through each of its three race outcomes — shed before acquisition,
// grant delivered, and cancelled-after-granted (which must degrade to an
// auto-Abandon through the orphan machinery) — plus the leak that the
// auto-Abandon prevents, reproduced with the fix-up disabled.
func TestAbortAsyncGrantRace(t *testing.T) {
	t.Run("delivered", func(t *testing.T) {
		tbl := rme.NewLockTable(1, 2, rme.WithTableSeed(9))
		defer tbl.Close()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		g, ok := <-tbl.LockAsyncContext(ctx, 7)
		if !ok {
			t.Fatal("grant channel closed on an uncancelled request")
		}
		g.Unlock()
		pollQuiesced(t, tbl)
	})

	t.Run("shed before acquisition", func(t *testing.T) {
		tbl := rme.NewLockTable(1, 2, rme.WithTableSeed(9))
		defer tbl.Close()
		k1, k2 := sameStripeKeys(tbl)
		tbl.Lock(k1)
		// The plain request blocks the dispatcher on the held stripe; the
		// cancellable one behind it is already dead when the dispatcher
		// reaches it and must shed without touching the stripe.
		ch1 := tbl.LockAsync(k1)
		ctx, cancel := context.WithCancel(context.Background())
		ch2 := tbl.LockAsyncContext(ctx, k2)
		cancel()
		tbl.Unlock(k1)
		g1, ok := <-ch1
		if !ok {
			t.Fatal("plain async grant lost")
		}
		g1.Unlock()
		if _, ok := <-ch2; ok {
			t.Fatal("cancelled request delivered a grant after its shed")
		}
		if got := tbl.Stats().Total().Aborts; got != 1 {
			t.Fatalf("Aborts = %d, want 1", got)
		}
		pollQuiesced(t, tbl)
	})

	t.Run("pre-expired", func(t *testing.T) {
		tbl := rme.NewLockTable(1, 2, rme.WithTableSeed(9))
		defer tbl.Close()
		ctx, cancel := context.WithDeadline(context.Background(), time.Unix(0, 0))
		defer cancel()
		if _, ok := <-tbl.LockAsyncContext(ctx, 7); ok {
			t.Fatal("pre-expired request delivered a grant")
		}
		if got := tbl.Stats().Total().Timeouts; got != 1 {
			t.Fatalf("Timeouts = %d, want 1", got)
		}
		pollQuiesced(t, tbl)
	})

	t.Run("cancelled after granted", func(t *testing.T) {
		tbl := rme.NewLockTable(1, 2, rme.WithTableSeed(9))
		defer tbl.Close()
		const k = 7
		ctx, cancel := context.WithCancel(context.Background())
		ch := tbl.LockAsyncContext(ctx, k)
		// Wait until the dispatcher holds the tenancy (the send is a
		// rendezvous we are deliberately not completing), then cancel: the
		// already-won grant must degrade to an auto-Abandon.
		deadline := time.Now().Add(10 * time.Second)
		for !tbl.Held(k) {
			if time.Now().After(deadline) {
				t.Fatal("dispatcher never acquired the tenancy")
			}
			time.Sleep(time.Millisecond)
		}
		cancel()
		if _, ok := <-ch; ok {
			t.Fatal("cancelled-after-granted request delivered its grant")
		}
		// The tenancy went through the ordinary orphan machinery.
		deadline = time.Now().Add(10 * time.Second)
		for tbl.Orphans() == 0 {
			if time.Now().After(deadline) {
				t.Fatal("auto-Abandon never orphaned the tenancy")
			}
			time.Sleep(time.Millisecond)
		}
		if got := tbl.Reclaim(); got != 1 {
			t.Fatalf("Reclaim() = %d, want 1", got)
		}
		pollQuiesced(t, tbl)
	})

	t.Run("cancelled after granted hazard", func(t *testing.T) {
		// With the fix-up disabled, the cancelled-but-granted race drops
		// the grant on the floor: the tenancy stays held with no holder —
		// invisible to Orphans(), unreachable by Reclaim — and the stripe
		// is leaked for good. This is the second hazard of the pair.
		tbl := rme.NewLockTable(1, 2, rme.WithTableSeed(9))
		defer tbl.Close()
		tbl.SetNoAbortFixup(true)
		const k = 7
		ctx, cancel := context.WithCancel(context.Background())
		ch := tbl.LockAsyncContext(ctx, k)
		deadline := time.Now().Add(10 * time.Second)
		for !tbl.Held(k) {
			if time.Now().After(deadline) {
				t.Fatal("dispatcher never acquired the tenancy")
			}
			time.Sleep(time.Millisecond)
		}
		cancel()
		if _, ok := <-ch; ok {
			t.Fatal("cancelled-after-granted request delivered its grant")
		}
		time.Sleep(50 * time.Millisecond)
		if got := tbl.Orphans(); got != 0 {
			t.Fatalf("Orphans() = %d; the leak is invisible to the sweep by construction", got)
		}
		if got := tbl.Reclaim(); got != 0 {
			t.Fatalf("Reclaim() = %d, want 0 (nothing for the sweep to see)", got)
		}
		if got := tbl.InUse(); got != 1 {
			t.Fatalf("InUse() = %d, want 1 (the leaked tenancy)", got)
		}
	})
}

// TestAbortBatchContext pins LockBatchContext's all-or-nothing contract:
// a deadline mid-walk releases every stripe acquired before the shed,
// repairs the one it abandoned, and leaves the caller holding nothing; the
// same batch then succeeds once the blocker releases.
func TestAbortBatchContext(t *testing.T) {
	tbl := rme.NewLockTable(8, 2, rme.WithTableSeed(21))
	defer tbl.Close()
	keys := []uint64{3, 17, 99, 256, 1024, 4096}
	blocker := keys[3]

	tbl.Lock(blocker)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	b, err := tbl.LockBatchContext(ctx, keys)
	if err != context.DeadlineExceeded || b != nil {
		t.Fatalf("LockBatchContext = (%v, %v), want (nil, DeadlineExceeded)", b, err)
	}
	for _, k := range keys {
		if k != blocker && tbl.Held(k) {
			t.Fatalf("key %d still held after the all-or-nothing unwind", k)
		}
	}
	if got := tbl.Stats().Total().Timeouts; got != 1 {
		t.Fatalf("Timeouts = %d, want 1 (one shed for the whole batch)", got)
	}

	tbl.Unlock(blocker)
	// Only the aborted stripe's self-repair is outstanding; once it drains
	// the identical batch must succeed.
	pollQuiesced(t, tbl)
	b2, err := tbl.LockBatchContext(context.Background(), keys)
	if err != nil {
		t.Fatalf("retry LockBatchContext = %v", err)
	}
	b2.Unlock()

	// Pre-expired context: shed before any stripe is touched.
	ctx2, cancel2 := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancel2()
	if _, err := tbl.LockBatchContext(ctx2, keys); err != context.DeadlineExceeded {
		t.Fatalf("pre-expired LockBatchContext = %v", err)
	}
	pollQuiesced(t, tbl)
}

// TestAbortShardStatsCounters pins the shed accounting deltas: deadline
// deaths to Timeouts, every other cancellation to Aborts, and the
// aggregation through TableStats.Total.
func TestAbortShardStatsCounters(t *testing.T) {
	tbl := rme.NewLockTable(1, 2, rme.WithTableSeed(1))
	defer tbl.Close()
	base := tbl.Stats().Total()
	if base.Aborts != 0 || base.Timeouts != 0 {
		t.Fatalf("fresh table sheds = (%d, %d)", base.Aborts, base.Timeouts)
	}

	expired, cancelExp := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancelExp()
	cancelled, cancelNow := context.WithCancel(context.Background())
	cancelNow()

	_ = tbl.LockContext(expired, 1)   // timeout
	_ = tbl.LockContext(cancelled, 1) // abort
	_ = tbl.LockContext(expired, 2)   // timeout

	got := tbl.Stats().Total()
	if got.Timeouts != 2 || got.Aborts != 1 {
		t.Fatalf("sheds = (timeouts %d, aborts %d), want (2, 1)", got.Timeouts, got.Aborts)
	}
	pollQuiesced(t, tbl)
}

// TestLockAsyncAbandonAfterClose pins that Close stops intake only: an
// outstanding Grant survives Close, its Abandon still routes through the
// orphan machinery, and Orphans/Reclaim stay fully functional on the
// closed table.
func TestLockAsyncAbandonAfterClose(t *testing.T) {
	tbl := rme.NewLockTable(2, 2, rme.WithTableSeed(13))
	g, ok := <-tbl.LockAsync(77)
	if !ok {
		t.Fatal("async grant lost")
	}
	tbl.Close()
	g.Abandon() // the documented supervisor move during shutdown
	if got := tbl.Orphans(); got != 1 {
		t.Fatalf("Orphans() = %d, want 1 after post-Close Abandon", got)
	}
	if got := tbl.Reclaim(); got != 1 {
		t.Fatalf("Reclaim() = %d, want 1 on the closed table", got)
	}
	if !tbl.Quiesced() {
		t.Fatal("closed table did not quiesce after the sweep")
	}
}

// TestAbortStormZipf is the referee for the whole abort tier: every
// backend runs a zipf-keyed storm mixing crash-injected Do passages,
// short-deadline LockContext calls, TryLock probes, and cancellable async
// requests, while per-key occupancy counters check mutual exclusion on
// every successful entry. At the end the table must drain to quiescence —
// cancelled waiters self-repaired, crashed workers swept — proving no
// cancellation lost a wake or stranded a stripe under fire.
func TestAbortStormZipf(t *testing.T) {
	backendMatrix(t, func(t *testing.T, backend rme.ShardBackend) {
		const workers = 32
		const keys = 1 << 10
		iters := 300
		if testing.Short() {
			iters = 60
		}
		tbl := rme.NewLockTable(8, 4, rme.WithTableSeed(71),
			rme.WithShardBackend(backend))
		defer tbl.Close()
		var calls atomic.Uint64
		var crashCount atomic.Int64
		tbl.SetCrashFunc(func(port int, point string) bool {
			if xrand.Mix64(calls.Add(1))%1777 == 0 {
				crashCount.Add(1)
				return true
			}
			return false
		})

		inside := make([]atomic.Int32, keys)
		enter := func(k uint64) {
			if inside[k].Add(1) != 1 {
				t.Errorf("two holders of key %d", k)
			}
		}
		leave := func(k uint64) { inside[k].Add(-1) }
		// absorb runs op, absorbing an injected Crash like Do's supervisor
		// does (sweep and move on); it reports whether op completed.
		absorb := func(op func()) (completed bool) {
			defer func() {
				r := recover()
				if r == nil {
					completed = true
					return
				}
				if _, ok := rme.AsCrash(r); !ok {
					panic(r)
				}
				tbl.Reclaim()
			}()
			op()
			return
		}

		// Supervisor sweep, as production runs one: crash orphans and
		// auto-Abandoned grants (a cancelled-after-granted async request
		// routes its tenancy through the orphan machinery) both wait for a
		// reclaimer, and a stripe whose dispatcher queues behind such an
		// orphan stalls until the sweep frees it.
		stop := make(chan struct{})
		var sweeper sync.WaitGroup
		sweeper.Add(1)
		go func() {
			defer sweeper.Done()
			for {
				select {
				case <-stop:
					return
				case <-time.After(time.Millisecond):
					tbl.Reclaim()
				}
			}
		}()

		var wg sync.WaitGroup
		var granted, sheds atomic.Int64
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				z := rand.NewZipf(rand.New(rand.NewSource(int64(w)+1)), 1.3, 1, keys-1)
				for i := 0; i < iters; i++ {
					k := z.Uint64()
					switch i % 4 {
					case 0: // crash-injected synchronous passage
						tbl.Do(k, func() { enter(k); leave(k) })
						granted.Add(1)
					case 1: // deadline-bounded acquisition
						ctx, cancel := context.WithTimeout(context.Background(), 100*time.Microsecond)
						absorb(func() {
							if err := tbl.LockContext(ctx, k); err != nil {
								sheds.Add(1)
								return
							}
							enter(k)
							leave(k)
							tbl.Unlock(k)
							granted.Add(1)
						})
						cancel()
					case 2: // opportunistic probe
						absorb(func() {
							if tbl.TryLock(k) {
								enter(k)
								leave(k)
								tbl.Unlock(k)
								granted.Add(1)
							}
						})
					case 3: // cancellable async acquisition
						ctx, cancel := context.WithTimeout(context.Background(), 100*time.Microsecond)
						if g, ok := <-tbl.LockAsyncContext(ctx, k); ok {
							enter(k)
							leave(k)
							absorb(g.Unlock)
							granted.Add(1)
						} else {
							sheds.Add(1)
						}
						cancel()
					}
				}
			}(w)
		}
		wg.Wait()
		close(stop)
		sweeper.Wait()
		tbl.SetCrashFunc(nil)

		// Drain: background fix-ups finish on their own, crashed workers'
		// orphans need the sweep; poll until the table is fully clean.
		deadline := time.Now().Add(30 * time.Second)
		for !tbl.Quiesced() {
			if time.Now().After(deadline) {
				t.Fatalf("storm did not drain: %d in use, %d orphans", tbl.InUse(), tbl.Orphans())
			}
			tbl.Reclaim()
			time.Sleep(time.Millisecond)
		}
		if crashCount.Load() == 0 {
			t.Error("storm injected no crashes")
		}
		if sheds.Load() == 0 {
			t.Error("storm shed no acquisitions; the abort paths never ran")
		}
		if granted.Load() == 0 {
			t.Error("storm granted nothing")
		}
		total := tbl.Stats().Total()
		if total.Aborts+total.Timeouts == 0 {
			t.Error("stats recorded no sheds")
		}
	})
}
