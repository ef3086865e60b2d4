package rme_test

import (
	"context"
	"encoding/json"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	rme "github.com/rmelib/rme"
	"github.com/rmelib/rme/internal/xrand"
)

// This file proves the supervised table: WithSupervisor heals every orphan
// from its birth, with no caller-driven Reclaim anywhere in these tests,
// and Close never waits on its caller. None of the supervised tests call
// Reclaim: healing crash orphans and abandoned grants is exactly the
// contract under test.

// waitQuiesced polls until the table drains or the deadline passes,
// without sweeping — on a supervised table the heals must do that.
func waitQuiesced(t *testing.T, tbl *rme.LockTable, d time.Duration) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !tbl.Quiesced() {
		if time.Now().After(deadline) {
			t.Fatalf("table did not drain: %d in use, %d orphans",
				tbl.InUse(), tbl.Orphans())
		}
		time.Sleep(time.Millisecond)
	}
}

// absorbCrash runs op, swallowing an injected Crash panic (any other
// panic propagates); it reports whether op completed. Unlike the older
// storm tests' absorb helper it does NOT sweep — the supervision owns that.
func absorbCrash(op func()) (completed bool) {
	defer func() {
		r := recover()
		if r == nil {
			completed = true
			return
		}
		if _, ok := rme.AsCrash(r); !ok {
			panic(r)
		}
	}()
	op()
	return
}

// TestSupervisorHealsStormNoManualReclaim is the supervised form of the
// abort/crash/async storm: crashes orphan ports, cancelled-after-granted
// async requests auto-Abandon into the orphan machinery, and some grants
// are explicitly Abandoned — and nothing in the test ever sweeps. The
// heals each orphaning starts must alone keep every stripe live and drain
// the debris.
func TestSupervisorHealsStormNoManualReclaim(t *testing.T) {
	backendMatrix(t, func(t *testing.T, backend rme.ShardBackend) {
		const workers = 24
		const keys = 1 << 9
		iters := 250
		if testing.Short() {
			iters = 50
		}
		tbl := rme.NewLockTable(8, 4, rme.WithTableSeed(83),
			rme.WithShardBackend(backend), rme.WithSupervisor())
		defer tbl.Close()

		var calls atomic.Uint64
		var crashCount atomic.Int64
		tbl.SetCrashFunc(func(port int, point string) bool {
			if xrand.Mix64(calls.Add(1))%1901 == 0 {
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

		var wg sync.WaitGroup
		var granted, sheds, abandoned atomic.Int64
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				z := rand.NewZipf(rand.New(rand.NewSource(int64(w)+1)), 1.3, 1, keys-1)
				for i := 0; i < iters; i++ {
					k := z.Uint64()
					switch i % 4 {
					case 0: // synchronous passage, crash retried (no sweep: the
						// supervisor heals while we re-acquire)
						for !absorbCrash(func() {
							tbl.Lock(k)
							enter(k)
							leave(k)
							tbl.Unlock(k)
						}) {
						}
						granted.Add(1)
					case 1: // deadline-bounded acquisition
						ctx, cancel := context.WithTimeout(context.Background(), 100*time.Microsecond)
						absorbCrash(func() {
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
					case 2: // async grant, sometimes abandoned like a dead grantee's
						if g, ok := <-tbl.LockAsync(k); ok {
							if i%16 == 2 {
								g.Abandon()
								abandoned.Add(1)
							} else {
								enter(k)
								leave(k)
								absorbCrash(g.Unlock)
								granted.Add(1)
							}
						}
					case 3: // cancellable async acquisition
						ctx, cancel := context.WithTimeout(context.Background(), 100*time.Microsecond)
						if g, ok := <-tbl.LockAsyncContext(ctx, k); ok {
							enter(k)
							leave(k)
							absorbCrash(g.Unlock)
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
		tbl.SetCrashFunc(nil)

		waitQuiesced(t, tbl, 30*time.Second)
		if tbl.Orphans() != 0 {
			t.Errorf("orphans after drain: %d", tbl.Orphans())
		}
		if granted.Load() == 0 {
			t.Error("storm granted nothing")
		}
		if abandoned.Load() == 0 {
			t.Error("storm abandoned no grants")
		}
		st := tbl.Stats()
		if crashCount.Load() > 0 && st.Supervisor.PortsHealed == 0 {
			t.Errorf("crashes injected (%d) but supervisor healed nothing", crashCount.Load())
		}
	})
}

// TestSupervisorQuiescedInboxDepth pins the Quiesced fix: a submitted but
// undispatched async request holds no lease, yet the table has not
// quiesced — the old InUse-only check reported true here, which would let
// a "quiescent" checkpoint miss a request about to take a lease.
func TestSupervisorQuiescedInboxDepth(t *testing.T) {
	tbl := rme.NewLockTable(1, 1, rme.WithTableSeed(5))
	defer tbl.Close()

	entered := make(chan struct{})
	block := make(chan struct{})
	// The callback settles its grant immediately (InUse drops to zero),
	// then wedges the dispatcher goroutine.
	tbl.LockAsyncFunc(1, func(g rme.Grant) {
		g.Unlock()
		close(entered)
		<-block
	})
	<-entered

	// Second request: queued in the inbox, dispatcher wedged — no lease
	// in use, depth 1.
	ch := tbl.LockAsync(2)
	if tbl.InUse() != 0 {
		// The dispatcher settled before wedging; the premise holds anyway
		// (the second request is certainly undispatched).
		t.Logf("InUse = %d (expected 0)", tbl.InUse())
	}
	if tbl.Quiesced() {
		t.Error("Quiesced() true with a queued async request (inbox depth ignored)")
	}

	close(block)
	g := <-ch
	g.Unlock()
	waitQuiesced(t, tbl, 5*time.Second)
}

// TestSupervisorHealsDescriptorHolder pins supervised availability on the
// default shape. A Lock killed at M.swap dies holding its stripe's MCS
// enqueue descriptor, which stalls every arrival until the orphan is
// healed; with no Reclaim call anywhere, a rival Lock on the stripe must
// enter and the orphan count must drain. The flat row crashes at L14
// (tail swung, pred not yet recorded), where the rival queues behind the
// broken node instead. Each row logs its median crash-to-entry time,
// which is the heal's own latency: it starts as the crash unwinds.
func TestSupervisorHealsDescriptorHolder(t *testing.T) {
	for _, c := range []struct {
		name    string
		backend rme.ShardBackend
		point   string
	}{
		{"default/M.swap", rme.AutoBackend, "M.swap"},
		{"flat/L14", rme.FlatBackend, "L14"},
	} {
		t.Run(c.name, func(t *testing.T) {
			tbl := rme.NewLockTable(1, 4, rme.WithTableSeed(41),
				rme.WithShardBackend(c.backend), rme.WithSupervisor())
			defer tbl.Close()
			const key, rounds = 5, 20
			lat := make([]time.Duration, 0, rounds)
			for r := 0; r < rounds; r++ {
				tbl.SetCrashFunc(crashOnceAt(c.point))
				expectCrash(t, func() { tbl.Lock(key) })
				crashed := time.Now()
				tbl.SetCrashFunc(nil)
				entered := make(chan time.Time, 1)
				go func() {
					tbl.Lock(key + 1) // same (only) stripe
					at := time.Now()
					tbl.Unlock(key + 1)
					entered <- at
				}()
				select {
				case at := <-entered:
					lat = append(lat, at.Sub(crashed))
				case <-time.After(5 * time.Second):
					t.Fatalf("round %d: rival stalled behind the dead holder (orphans %d)", r, tbl.Orphans())
				}
				waitQuiesced(t, tbl, 5*time.Second)
			}
			if got := tbl.Orphans(); got != 0 {
				t.Fatalf("Orphans = %d after the rounds, want 0", got)
			}
			sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
			t.Logf("%s (%s): crash -> rival entry median %v, range %v..%v over %d rounds",
				tbl.Backend(), c.point, lat[len(lat)/2], lat[0], lat[len(lat)-1], rounds)
		})
	}
}

// TestSupervisorCloseWhileHolding pins that Close never waits on its
// caller. The caller holds key 1 of a one-stripe flat table, and a Lock(2)
// killed at L14 leaves an orphan whose heal queues behind key 1. Close
// must return while key 1 is still held; once the caller unlocks, the heal
// finishes and the table drains.
func TestSupervisorCloseWhileHolding(t *testing.T) {
	tbl := rme.NewLockTable(1, 4, rme.WithTableSeed(7),
		rme.WithShardBackend(rme.FlatBackend), rme.WithSupervisor())
	tbl.Lock(1)
	tbl.SetCrashFunc(crashOnceAt("L14"))
	expectCrash(t, func() { tbl.Lock(2) })
	tbl.SetCrashFunc(nil)
	if got := tbl.Stats().Supervisor.PortsHealed; got != 1 {
		t.Errorf("PortsHealed = %d after one death, want 1", got)
	}

	closed := make(chan struct{})
	go func() {
		tbl.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(2 * time.Second):
		tbl.Unlock(1)
		<-closed
		t.Fatal("Close blocked while its caller held a key a heal was queued behind")
	}
	tbl.Unlock(1)
	waitQuiesced(t, tbl, 5*time.Second)
}

// TestSupervisorHealsEveryOrphanSite runs one row per way a supervised
// table's tenancy can be orphaned, and each row must drain with no Reclaim
// call: the orphaning party itself starts the heal. Every row then locks
// each of its keys once, so a stripe left broken by its heal fails too.
func TestSupervisorHealsEveryOrphanSite(t *testing.T) {
	for _, c := range []struct {
		name   string
		orphan func(t *testing.T, tbl *rme.LockTable, keys []uint64)
	}{
		{"lock", func(t *testing.T, tbl *rme.LockTable, keys []uint64) {
			tbl.SetCrashFunc(crashOnceAt("M.swap"))
			expectCrash(t, func() { tbl.Lock(keys[0]) })
		}},
		{"unlock", func(t *testing.T, tbl *rme.LockTable, keys []uint64) {
			tbl.Lock(keys[0])
			tbl.SetCrashFunc(crashOnceAt("M.cs"))
			expectCrash(t, func() { tbl.Unlock(keys[0]) })
		}},
		{"batch-acquire", func(t *testing.T, tbl *rme.LockTable, keys []uint64) {
			// Dies enqueuing on the second stripe: the batch guard orphans
			// the first, the stripe's own guard the second.
			var swaps atomic.Int32
			tbl.SetCrashFunc(func(port int, point string) bool {
				return point == "M.swap" && swaps.Add(1) == 2
			})
			expectCrash(t, func() { tbl.LockBatch(keys) })
		}},
		{"batch-release", func(t *testing.T, tbl *rme.LockTable, keys []uint64) {
			b := tbl.LockBatch(keys)
			var exits atomic.Int32
			tbl.SetCrashFunc(func(port int, point string) bool {
				return point == "M.cs" && exits.Add(1) == 2
			})
			expectCrash(t, b.Unlock)
		}},
		{"callback", func(t *testing.T, tbl *rme.LockTable, keys []uint64) {
			died := make(chan struct{})
			tbl.LockAsyncFunc(keys[0], func(rme.Grant) {
				close(died)
				panic(rme.Crash{Point: "callback died holding its grant"})
			})
			<-died
		}},
		{"abandon", func(t *testing.T, tbl *rme.LockTable, keys []uint64) {
			(<-tbl.LockAsync(keys[0])).Abandon()
		}},
		{"cancel-after-grant", func(t *testing.T, tbl *rme.LockTable, keys []uint64) {
			// The request's worker leases a port and queues behind the
			// held key; the ctx dies before the stripe is handed over, and
			// nobody receives, so the grant auto-Abandons.
			rival := keysOnStripe(tbl, tbl.ShardIndex(keys[0]), 2)[1]
			tbl.Lock(keys[0])
			ctx, cancel := context.WithCancel(context.Background())
			ch := tbl.LockAsyncContext(ctx, rival)
			waitFor(t, 5*time.Second, "the request to lease a port", func() bool { return tbl.InUse() == 2 })
			cancel()
			tbl.Unlock(keys[0])
			waitQuiesced(t, tbl, 5*time.Second)
			if _, ok := <-ch; ok {
				t.Fatal("a cancelled request's grant was delivered")
			}
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			tbl := rme.NewLockTable(4, 4, rme.WithTableSeed(29), rme.WithSupervisor())
			defer tbl.Close()
			keys := keysOnDistinctStripes(tbl, 3)
			c.orphan(t, tbl, keys)
			tbl.SetCrashFunc(nil)
			// A callback's guard runs after the callback has signalled, so
			// wait for the heal count rather than read it once.
			waitFor(t, 5*time.Second, "the orphaning to start a heal", func() bool {
				return tbl.Stats().Supervisor.PortsHealed > 0
			})
			waitQuiesced(t, tbl, 5*time.Second)
			for _, k := range keys {
				tbl.Lock(k)
				tbl.Unlock(k)
			}
		})
	}
}

// TestSupervisorStatsJSON pins the MarshalJSON surface byte for byte:
// stable snake_case keys, the derived wakes-per-op ratio inlined, and the
// Total() aggregate. The pool size is pinned so the encoding does not
// depend on the machine.
func TestSupervisorStatsJSON(t *testing.T) {
	tbl := rme.NewLockTable(1, 4, rme.WithTableSeed(13), rme.WithDispatcherPool(4))
	defer tbl.Close()
	tbl.Lock(1)
	tbl.Unlock(1)

	raw, err := json.Marshal(tbl.Stats())
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	const stripe = `{"acquires":1,"publishes":0,"wakes":0,"sleeps":0,"parks":0,"spin_rounds":0,` +
		`"aborts":0,"timeouts":0,"orphans":0,"inbox_depth":0,"wakes_per_op":0}`
	const want = `{"shards":[` + stripe + `],"total":` + stripe +
		`,"supervisor":{"ports_healed":0}` +
		`,"dispatcher":{"pool_size":4,"workers":0,"engaged":0,"run_queue_depth":0,"batches":0,"steals":0}}`
	if got := string(raw); got != want {
		t.Errorf("stats JSON:\n got %s\nwant %s", got, want)
	}
}
