// locktable: the supervised keyed lock service under fire. A pool of
// worker goroutines increments per-account balances in a "non-volatile"
// ledger, locking each account by name through a LockTable — account
// names folded to keys with rme.StringKey and striped over a small arena
// of recoverable mutexes, with port identities leased per passage instead
// of pinned per goroutine.
//
// Injected crashes kill workers at arbitrary protocol steps, including
// inside the critical section and half-way through a release. A dying
// worker's lease is orphaned in its last breath (the library's
// OrphanOnCrash guard runs as the Crash panic unwinds) — and then nobody
// in this program cleans it up, because the table was built with
// WithSupervisor: its background supervisor claims the orphan on the
// next tick, re-enters the critical section if the dead worker held it,
// repairs the queue if it died waiting, and hands the port back. The
// crashed worker just retries. Earlier revisions of this example ran a
// hand-rolled reclaim sweep in every worker's recovery path; the
// supervised table makes that whole pattern disappear.
//
// The account traffic is deliberately skewed (most deposits land on one
// hot account), so the hot stripe is genuinely contended and its queue
// is where most deaths leave their debris.
//
// Alongside the storm, an auditor reports running totals on a latency
// budget: each account is read under LockContext with 1ms to spare, and
// a stripe that cannot be won in time — busy, or stalled behind a dead
// tenancy the supervisor has not reached yet — sheds with
// context.DeadlineExceeded and the auditor degrades to the account's
// last published balance instead of queueing behind recovery.
//
// The invariant checked at the end: every increment applied exactly
// once and no port left orphaned, despite the crash storm — with
// SupervisorStats showing who did the housekeeping.
//
//	go run ./examples/locktable
package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	rme "github.com/rmelib/rme"
	"github.com/rmelib/rme/internal/xrand"
)

const (
	workers  = 8
	accounts = 6
	deposits = 2500 // per worker
)

var crashes atomic.Int64

// ledger is the NVM side: balances and the keyed lock protecting them.
// Balances are plain ints on purpose — only the table's mutual exclusion
// keeps the read-modify-write sound.
type ledger struct {
	tbl      *rme.LockTable
	balances [accounts]int

	// published mirrors each balance, stored under the account's lock on
	// every deposit — the stale-but-consistent value the auditor's
	// degraded path serves when its lock budget expires.
	published [accounts]atomic.Int64
}

func accountName(i int) string { return fmt.Sprintf("acct/%03d", i) }

// accountKey is each account's table key: its name folded to 64 bits.
var accountKey = func() (k [accounts]uint64) {
	for i := range k {
		k[i] = rme.StringKey(accountName(i))
	}
	return k
}()

// withRecovery runs fn, converting an injected crash into a false return
// (any other panic propagates). Note what is missing compared to a
// hand-rolled supervisor: no Reclaim call. The orphan the death left
// behind is the table's own problem now — its supervisor claims and
// recovers it within a tick — so recovery here is just "count it and
// retry".
func withRecovery(fn func()) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, isCrash := rme.AsCrash(r); !isCrash {
				panic(r)
			}
			crashes.Add(1)
			ok = false
		}
	}()
	fn()
	return true
}

// deposit adds amount to account idx, surviving any number of injected
// deaths: a crashed Lock is simply retried (the retry parks until the
// supervisor has healed the dead tenancy in its way, if any), and a
// crashed Unlock is finished by the supervisor itself, so the deposit —
// applied before the release began — counts exactly once either way. The
// scheduler yield inside the critical section models real CS work
// crossing a scheduler boundary; it is also what makes the hot account
// genuinely contended on any GOMAXPROCS.
func (l *ledger) deposit(idx, amount int) {
	key := accountKey[idx]
	for !withRecovery(func() { l.tbl.Lock(key) }) {
	}
	l.balances[idx] += amount
	runtime.Gosched() // critical-section work
	l.published[idx].Store(int64(l.balances[idx]))
	withRecovery(func() { l.tbl.Unlock(key) })
}

// auditTotal sums every account on a 1ms-per-key latency budget. An
// account whose stripe is won in time is read exactly; one that sheds on
// the deadline (or whose auditor passage is killed by the crash storm)
// degrades to its last published balance. The return reports how many
// accounts took the degraded path, so a caller can tell a clean audit
// from a best-effort one.
func (l *ledger) auditTotal() (total int, degraded int) {
	for i := 0; i < accounts; i++ {
		key := accountKey[i]
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		var err error
		ok := withRecovery(func() { err = l.tbl.LockContext(ctx, key) })
		cancel()
		if !ok || err != nil {
			total += int(l.published[i].Load())
			degraded++
			continue
		}
		total += l.balances[i]
		withRecovery(func() { l.tbl.Unlock(key) })
	}
	return total, degraded
}

func main() {
	// A 4-stripe × 16-port arena (enough ports for every worker plus the
	// auditor to queue on the hot stripe) with a supervisor sweeping
	// orphans every millisecond.
	l := &ledger{tbl: rme.NewLockTable(4, 16,
		rme.WithSupervisor(rme.SupervisorConfig{Interval: time.Millisecond}))}
	defer l.tbl.Close() // joins the supervisor and every heal it started

	// Kill a worker roughly every two thousand protocol steps.
	var calls atomic.Uint64
	l.tbl.SetCrashFunc(func(port int, point string) bool {
		return xrand.Mix64(calls.Add(1))%2048 == 0
	})

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// Skewed account choice: most deposits land on the hot
			// account, the tail spreads over the rest.
			rng := xrand.New(uint64(w) + 1)
			for i := 0; i < deposits; i++ {
				acct := 0
				if rng.Uint64()%3 == 0 { // ~1/3 of traffic off the hot key
					acct = 1 + rng.Intn(accounts-1)
				}
				l.deposit(acct, 1)
			}
		}(w)
	}

	// Deadline-shedding reporter: audit the ledger throughout the storm on
	// a 1ms budget per account, degrading rather than queueing when a
	// stripe cannot be won in time.
	stormDone := make(chan struct{})
	var audits, degradedReads atomic.Int64
	var auditor sync.WaitGroup
	auditor.Add(1)
	go func() {
		defer auditor.Done()
		for {
			select {
			case <-stormDone:
				return
			default:
			}
			_, degraded := l.auditTotal()
			audits.Add(1)
			degradedReads.Add(int64(degraded))
			time.Sleep(200 * time.Microsecond)
		}
	}()

	wg.Wait()
	close(stormDone)
	auditor.Wait()
	l.tbl.SetCrashFunc(nil)

	// No final sweep: the supervisor drains the storm's leftovers on its
	// own, and the table reports quiescent — no orphans, no queued async
	// work — within a few ticks of the last death.
	for deadline := time.Now().Add(5 * time.Second); !l.tbl.Quiesced(); {
		if time.Now().After(deadline) {
			panic("table not quiesced after the storm")
		}
		time.Sleep(time.Millisecond)
	}

	total := 0
	for i := range l.balances {
		fmt.Printf("%s balance %d\n", accountName(i), l.balances[i])
		total += l.balances[i]
	}
	fmt.Printf("\n%d deposits by %d workers, %d injected deaths, zero Reclaim calls in this program\n",
		total, workers, crashes.Load())

	st := l.tbl.Stats()
	sup := st.Supervisor
	fmt.Printf("supervisor: %d sweeps, %d orphaned ports healed across %d stripe heals\n",
		sup.Sweeps, sup.PortsHealed, sup.StripesHealed)
	fmt.Printf("%d %s stripes:\n", len(st.Shards), l.tbl.Backend())
	for i, sh := range st.Shards {
		fmt.Printf("  stripe %d: acquires=%d wakes/op=%.2f\n", i, sh.Acquires, sh.WakesPerOp())
	}
	fmt.Printf("%d budget audits during the storm: %d degraded reads, %d deadline sheds counted by the table\n",
		audits.Load(), degradedReads.Load(), st.Total().Timeouts)

	if final, degraded := l.auditTotal(); degraded != 0 || final != total {
		panic(fmt.Sprintf("post-storm audit degraded=%d total=%d, want clean total %d", degraded, final, total))
	}
	if want := workers * deposits; total != want {
		panic(fmt.Sprintf("LOST OR DOUBLED DEPOSITS: total %d, want %d", total, want))
	}
	if crashes.Load() > 0 && sup.PortsHealed == 0 {
		panic("workers crashed but the supervisor healed nothing — who cleaned up?")
	}

	// One deliberate shed: hold an account and audit again. The held
	// stripe (plus any account striped with it) blows the 1ms budget and
	// degrades to its published balance; every other account still reads
	// exactly, and the total is unchanged because the degraded copies are
	// current.
	l.tbl.Lock(accountKey[0])
	shedTotal, degraded := l.auditTotal()
	l.tbl.Unlock(accountKey[0])
	fmt.Printf("audit with %s held: %d degraded read(s), total still %d\n",
		accountName(0), degraded, shedTotal)
	if degraded == 0 || shedTotal != total {
		panic(fmt.Sprintf("held stripe: degraded=%d total=%d, want >=1 degraded and total %d",
			degraded, shedTotal, total))
	}
	fmt.Println("every deposit applied exactly once; table quiesced; nobody called Reclaim")
}
