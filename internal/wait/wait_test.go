package wait

import (
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func strategies() []Strategy {
	return []Strategy{Yield(), Spin(), SpinThenPark(8)}
}

// TestWakeBeforeSleep: a wake that lands between Begin and Sleep must make
// Sleep return immediately (the re-check discipline).
func TestWakeBeforeSleep(t *testing.T) {
	for _, st := range strategies() {
		t.Run(st.String(), func(t *testing.T) {
			var c Cell
			w := c.Begin(st)
			c.Wake()
			done := make(chan struct{})
			go func() {
				st.Sleep(w, nil)
				close(done)
			}()
			select {
			case <-done:
			case <-time.After(2 * time.Second):
				t.Fatal("Sleep did not observe the earlier wake")
			}
		})
	}
}

// TestSleepThenWake: the ordinary blocking handshake under every strategy.
func TestSleepThenWake(t *testing.T) {
	for _, st := range strategies() {
		t.Run(st.String(), func(t *testing.T) {
			var c Cell
			w := c.Begin(st)
			done := make(chan struct{})
			go func() {
				st.Sleep(w, nil)
				close(done)
			}()
			select {
			case <-done:
				t.Fatal("Sleep returned before any wake")
			case <-time.After(10 * time.Millisecond):
			}
			c.Wake()
			select {
			case <-done:
			case <-time.After(2 * time.Second):
				t.Fatal("Sleep never released after Wake")
			}
		})
	}
}

// TestStaleWakeIsLost is the crash-safety argument of the whole engine: a
// wake whose generation snapshot predates a crash-and-re-execute must be
// lost, never leaking into the re-executed wait's fresh episode — the
// generation-stamped equivalent of the paper's fresh-spin-word-per-wait
// property (Figure 2 line 5).
func TestStaleWakeIsLost(t *testing.T) {
	for _, st := range strategies() {
		t.Run(st.String(), func(t *testing.T) {
			var c Cell
			c.Begin(st) // the pre-crash episode
			staleGen := c.w.gen()
			// The process "crashes" and re-executes its wait, which stamps a
			// fresh generation; a waker that snapshotted the word before the
			// crash now delivers its wake against the old generation.
			w := c.Begin(st)
			if c.w.wake(staleGen) {
				t.Fatal("stale wake reported as delivered")
			}
			if w.Woken() {
				t.Fatal("stale wake leaked into the fresh episode")
			}
			done := make(chan struct{})
			go func() {
				st.Sleep(w, nil)
				close(done)
			}()
			select {
			case <-done:
				t.Fatal("fresh episode's Sleep released by a stale wake")
			case <-time.After(20 * time.Millisecond):
			}
			c.Wake() // a wake snapshotting the live generation is delivered
			select {
			case <-done:
			case <-time.After(2 * time.Second):
				t.Fatal("live episode never woken through the Cell")
			}
		})
	}
}

// TestGenerationWraparound starts the generation counter at the top of its
// 32-bit range: stamping across the wrap must keep stale wakes lost and
// live wakes delivered (only equality is ever compared).
func TestGenerationWraparound(t *testing.T) {
	for _, st := range strategies() {
		t.Run(st.String(), func(t *testing.T) {
			var c Cell
			c.w.word.Store(pack(math.MaxUint32-1, stateEmpty))
			c.Begin(st)
			if g := c.w.gen(); g != math.MaxUint32 {
				t.Fatalf("gen = %d, want MaxUint32", g)
			}
			preWrap := c.w.gen()
			w := c.Begin(st) // wraps to 0
			if g := c.w.gen(); g != 0 {
				t.Fatalf("gen after wrap = %d, want 0", g)
			}
			if c.w.wake(preWrap) {
				t.Fatal("pre-wrap stale wake delivered across the wrap")
			}
			if w.Woken() {
				t.Fatal("pre-wrap stale wake leaked across the wrap")
			}
			c.Wake()
			if !w.Woken() {
				t.Fatal("live wake not delivered in generation 0")
			}
			w.Consume()
			// One more full episode on the wrapped counter.
			w = c.Begin(st)
			done := make(chan struct{})
			go func() {
				st.Sleep(w, nil)
				close(done)
			}()
			time.Sleep(2 * time.Millisecond)
			c.Wake()
			select {
			case <-done:
			case <-time.After(2 * time.Second):
				t.Fatal("post-wrap episode never woken")
			}
		})
	}
}

// TestRepublishWakeStorm hammers Begin against concurrent Cell.Wake calls
// (run with -race): the crash-storm shape, where a slot is abandoned and
// re-stamped over and over while a peer keeps delivering wakes. Every
// episode that actually sleeps must be released, and the engine must not
// allocate fresh state to survive it.
func TestRepublishWakeStorm(t *testing.T) {
	for _, st := range []Strategy{Yield(), SpinThenPark(1)} {
		t.Run(st.String(), func(t *testing.T) {
			var c Cell
			var cond atomic.Int64
			const iters = 3000
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(2)
			go func() { // the crashing-and-recovering waiter
				defer wg.Done()
				for i := 0; i < iters; i++ {
					w := c.Begin(st)
					if i%3 == 0 {
						continue // "crash": abandon the episode unslept
					}
					for cond.Load() < int64(i) {
						st.Sleep(w, nil)
						w.Consume()
					}
				}
				close(stop)
			}()
			go func() { // the waker
				defer wg.Done()
				for i := 0; ; i++ {
					select {
					case <-stop:
						return
					default:
					}
					cond.Add(1)
					c.Wake()
					if i%64 == 0 {
						runtime.Gosched()
					}
				}
			}()
			done := make(chan struct{})
			go func() { wg.Wait(); close(done) }()
			select {
			case <-done:
			case <-time.After(60 * time.Second):
				t.Fatal("republish/wake storm hung (lost wakeup)")
			}
		})
	}
}

// TestZeroAllocEpisodes pins the tentpole claim at the engine level: after
// the first episode (which may create the park channel), a full
// Begin/Wake/Sleep/Consume cycle allocates nothing under any strategy.
func TestZeroAllocEpisodes(t *testing.T) {
	for _, st := range strategies() {
		t.Run(st.String(), func(t *testing.T) {
			var c Cell
			w := c.Begin(st) // first episode pays the lazy channel, if any
			c.Wake()
			st.Sleep(w, nil)
			avg := testing.AllocsPerRun(200, func() {
				w := c.Begin(st)
				c.Wake()
				st.Sleep(w, nil)
				w.Consume()
			})
			if avg != 0 {
				t.Fatalf("allocs per episode = %v, want 0", avg)
			}
		})
	}
}

// TestConsumeAndRecheck drives the tournament lock's wait loop shape: each
// wake is consumed, the condition re-checked, and the same episode slept on
// again. Spurious wakes (delivered before the condition holds) must neither
// be missed nor double-counted.
func TestConsumeAndRecheck(t *testing.T) {
	for _, st := range strategies() {
		t.Run(st.String(), func(t *testing.T) {
			var c Cell
			var cond atomic.Int32
			const rounds = 5
			w := c.Begin(st)
			done := make(chan int)
			go func() {
				wakes := 0
				for cond.Load() < rounds {
					st.Sleep(w, nil)
					w.Consume()
					wakes++
				}
				done <- wakes
			}()
			for i := 0; i < rounds; i++ {
				time.Sleep(time.Millisecond)
				cond.Add(1)
				c.Wake()
			}
			select {
			case <-done:
			case <-time.After(5 * time.Second):
				t.Fatal("consume-and-recheck loop hung")
			}
		})
	}
}

// TestParkWakeRace hammers the park/wake transition with minimal spin so
// the CAS-to-parked path races real wakes (run with -race). The episodes
// all reuse one Waiter and one channel — the reuse the generation stamp
// makes safe.
func TestParkWakeRace(t *testing.T) {
	st := SpinThenPark(1)
	var c Cell
	var turn atomic.Int32
	const iters = 2000
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			w := c.Begin(st)
			for turn.Load() <= int32(i) {
				st.Sleep(w, nil)
				w.Consume()
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < iters; i++ {
			turn.Add(1)
			c.Wake()
			if i%64 == 0 {
				runtime.Gosched()
			}
		}
	}()
	ch := make(chan struct{})
	go func() { wg.Wait(); close(ch) }()
	select {
	case <-ch:
	case <-time.After(30 * time.Second):
		t.Fatal("park/wake race test hung (lost wakeup)")
	}
}

// TestDoubleWakeCollapses: extra wakes on the same episode collapse into
// one and never corrupt a later park episode's token accounting.
func TestDoubleWakeCollapses(t *testing.T) {
	st := SpinThenPark(1)
	var c Cell
	w := c.Begin(st)
	c.Wake()
	c.Wake()
	st.Sleep(w, nil) // returns immediately
	w.Consume()
	done := make(chan struct{})
	go func() {
		st.Sleep(w, nil) // must actually block: both wakes were consumed as one
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("collapsed wake observed twice")
	case <-time.After(20 * time.Millisecond):
	}
	c.Wake()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("waiter never released")
	}
}

// TestStaleParkTokenIsAbsorbed forces the one token-leak window reuse
// opens: a waker commits its parked→set CAS, the episode dies before the
// token is consumed, and a later episode of the same slot parks. The stale
// token must wake that park only spuriously — park re-checks and re-parks —
// and the real wake must still get through.
func TestStaleParkTokenIsAbsorbed(t *testing.T) {
	st := SpinThenPark(1)
	var c Cell
	w := c.Begin(st)
	// Park the first episode and wake it, leaving its token consumed; then
	// plant a stale token directly, modeling a waker that stalled between
	// its CAS and its send until after the next Begin's drain.
	go func() {
		time.Sleep(2 * time.Millisecond)
		c.Wake()
	}()
	st.Sleep(w, nil)
	w = c.Begin(st)
	c.w.ch <- struct{}{} // the stale token lands after the drain
	done := make(chan struct{})
	go func() {
		st.Sleep(w, nil) // spurious token must not release this sleep
		close(done)
	}()
	select {
	case <-done:
		t.Fatal("stale park token released a live sleep")
	case <-time.After(20 * time.Millisecond):
	}
	c.Wake()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("real wake lost after a stale token")
	}
}

// TestAwait covers the single-shot Signal-style wait: condition already
// true (no sleep) and condition set concurrently with the wake.
func TestAwait(t *testing.T) {
	for _, st := range strategies() {
		t.Run(st.String(), func(t *testing.T) {
			var c Cell
			var bit atomic.Bool
			bit.Store(true)
			c.Await(st, bit.Load) // returns without sleeping

			bit.Store(false)
			done := make(chan struct{})
			go func() {
				c.Await(st, bit.Load)
				close(done)
			}()
			time.Sleep(5 * time.Millisecond)
			bit.Store(true) // set the condition...
			c.Wake()        // ...then wake, as every setter in the stack does
			select {
			case <-done:
			case <-time.After(2 * time.Second):
				t.Fatal("Await never released")
			}
		})
	}
}

// TestInstrumented checks the RMR-proxy counters: one publish per Await,
// one wake per delivery, sleeps only when blocking happened.
func TestInstrumented(t *testing.T) {
	var stats Stats
	st := Instrumented(SpinThenPark(1), &stats)
	var c Cell
	var bit atomic.Bool
	done := make(chan struct{})
	go func() {
		c.Await(st, bit.Load)
		close(done)
	}()
	for stats.Publishes.Load() == 0 {
		runtime.Gosched()
	}
	time.Sleep(5 * time.Millisecond)
	bit.Store(true)
	c.Wake()
	<-done
	if got := stats.Publishes.Load(); got != 1 {
		t.Errorf("Publishes = %d, want 1", got)
	}
	if got := stats.Wakes.Load(); got != 1 {
		t.Errorf("Wakes = %d, want 1", got)
	}
	if got := stats.Sleeps.Load(); got != 1 {
		t.Errorf("Sleeps = %d, want 1", got)
	}
}

// TestOversubscribedHandoff runs a wake chain across far more goroutines
// than GOMAXPROCS under the parking strategy: every link must hand off
// without livelock even though almost all waiters are runnable-starved.
func TestOversubscribedHandoff(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	n := 32 * procs
	st := SpinThenPark(4)
	cells := make([]Cell, n)
	var sum atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		w := cells[i].Begin(st)
		wg.Add(1)
		go func(i int, w *Waiter) {
			defer wg.Done()
			st.Sleep(w, nil)
			sum.Add(1)
			if i+1 < n {
				cells[i+1].Wake()
			}
		}(i, w)
	}
	cells[0].Wake()
	ch := make(chan struct{})
	go func() { wg.Wait(); close(ch) }()
	select {
	case <-ch:
	case <-time.After(60 * time.Second):
		t.Fatalf("oversubscribed handoff stalled at %d/%d", sum.Load(), n)
	}
}

// TestConsumeDoesNotClobberConcurrentWake pins the clobbered-wake window
// closed by the CAS form of Consume: a spurious Consume (one racing a wake
// that has not been delivered yet from its point of view) must never erase
// the wake. The old load-clear-store could read Empty, have the wake land,
// and then blindly store Empty over it. The invariant checked is exact:
// after both calls finish, either the Consume consumed the wake or the
// wake is still visible — never neither. Run under -race, the schedule
// churn makes the window hit reliably within the iteration budget.
func TestConsumeDoesNotClobberConcurrentWake(t *testing.T) {
	st := Yield()
	var c Cell
	iters := 50_000
	if testing.Short() {
		iters = 5_000
	}
	for i := 0; i < iters; i++ {
		w := c.Begin(st)
		var consumed atomic.Bool
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			c.Wake()
		}()
		go func() {
			defer wg.Done()
			consumed.Store(w.Consume())
		}()
		wg.Wait()
		if !consumed.Load() && !w.Woken() {
			t.Fatalf("iteration %d: wake was clobbered by a spurious Consume", i)
		}
		if consumed.Load() && w.Woken() {
			t.Fatalf("iteration %d: wake both consumed and still pending", i)
		}
	}
}

// TestConsumeReportsDelivery pins Consume's return value: false on an
// empty episode, true exactly once per delivered wake.
func TestConsumeReportsDelivery(t *testing.T) {
	var c Cell
	w := c.Begin(Yield())
	if w.Consume() {
		t.Fatal("Consume on a fresh episode reported a wake")
	}
	c.Wake()
	if !w.Consume() {
		t.Fatal("Consume after Wake reported nothing")
	}
	if w.Consume() {
		t.Fatal("second Consume re-consumed the same wake")
	}
}
