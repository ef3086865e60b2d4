package wait

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestAbortChainCancelVsWakeRace storms the Wait cancel path against
// concurrent Wakes on a capacity-1 semaphore: half the wait episodes carry
// an already-closed cancel channel, so cancellations constantly race the
// wake handout and the retire path's absorb-and-forward fires for real.
// The referee checks both halves of the contract under -race: mutual
// exclusion never exceeds the semaphore's capacity (a forwarded wake is a
// hint, not a grant), and every worker finishes (a wake aimed at a
// cancelling waiter is forwarded, never dropped — one drop would park some
// open-channel waiter forever).
func TestAbortChainCancelVsWakeRace(t *testing.T) {
	for _, st := range []Strategy{Yield(), SpinThenPark(64)} {
		st := st
		t.Run(st.String(), func(t *testing.T) {
			const capacity = 1
			const workers = 8
			iters := 2000
			if testing.Short() {
				iters = 400
			}

			var c Chain
			var sem atomic.Int32
			sem.Store(capacity)
			tryAcquire := func() bool {
				for {
					v := sem.Load()
					if v == 0 {
						return false
					}
					if sem.CompareAndSwap(v, v-1) {
						return true
					}
				}
			}
			free := func() bool { return sem.Load() > 0 }

			closed := make(chan struct{})
			close(closed)
			open := make(chan struct{})
			defer close(open)

			var held atomic.Int32
			var cancels atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						// First attempt of each acquisition races a closed
						// cancel channel against the wake traffic; after a
						// cancellation, wait for real so the loop always
						// makes progress.
						done := closed
						if (w+i)%2 == 0 {
							done = open
						}
						for !tryAcquire() {
							if !c.Wait(st, free, done) {
								cancels.Add(1)
								done = open
							}
						}
						if h := held.Add(1); h > capacity {
							t.Errorf("%d holders of a capacity-%d semaphore", h, capacity)
						}
						// Yield while holding so peers pile up on the chain —
						// without this the scheduler runs each worker's whole
						// loop in one quantum and nothing ever waits.
						runtime.Gosched()
						held.Add(-1)
						sem.Add(1)
						c.Wake()
					}
				}(w)
			}

			finished := make(chan struct{})
			go func() { wg.Wait(); close(finished) }()
			select {
			case <-finished:
			case <-time.After(60 * time.Second):
				t.Fatal("storm stalled: a wake aimed at a cancelling waiter was dropped")
			}
			if c.Waiters() != 0 {
				t.Fatalf("%d waiters still registered after the storm", c.Waiters())
			}
			if cancels.Load() == 0 {
				t.Fatal("storm exercised no cancellations; the race under test never ran")
			}
		})
	}
}
