package rme_test

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	rme "github.com/rmelib/rme"
	"github.com/rmelib/rme/internal/xrand"
)

func TestTreeArity(t *testing.T) {
	tests := []struct{ n, arity int }{
		{2, 2}, {4, 2}, {16, 2}, {64, 3}, {256, 3}, {1024, 4},
	}
	for _, tt := range tests {
		if got := rme.TreeArity(tt.n); got != tt.arity {
			t.Errorf("TreeArity(%d) = %d, want %d", tt.n, got, tt.arity)
		}
	}
}

func TestTreeSingleProcess(t *testing.T) {
	m := rme.NewTree(1)
	for i := 0; i < 50; i++ {
		m.Lock(0)
		if !m.Held(0) {
			t.Fatal("not held in CS")
		}
		m.Unlock(0)
	}
}

func TestTreeMutualExclusionStress(t *testing.T) {
	for _, n := range []int{2, 5, 9, 16} {
		t.Run(fmt.Sprintf("n%d", n), func(t *testing.T) {
			m := rme.NewTree(n)
			counter := 0 // race-detector referee
			var inside atomic.Int32
			var wg sync.WaitGroup
			iters := 2000 / n
			for w := 0; w < n; w++ {
				wg.Add(1)
				go func(proc int) {
					defer wg.Done()
					for i := 0; i < iters; i++ {
						m.Lock(proc)
						if inside.Add(1) != 1 {
							t.Errorf("two processes in the tree CS")
						}
						counter++
						inside.Add(-1)
						m.Unlock(proc)
					}
				}(w)
			}
			wg.Wait()
			if counter != n*iters {
				t.Fatalf("counter = %d, want %d", counter, n*iters)
			}
		})
	}
}

func TestTreeCSRAfterWorkerDeath(t *testing.T) {
	m := rme.NewTree(4)
	func() { m.Lock(0) }() // holder dies with the whole path held

	if !m.Held(0) {
		t.Fatal("Held(0) should be true")
	}
	entered := make(chan struct{})
	go func() {
		m.Lock(3) // different subtree: must still be excluded at the root
		close(entered)
		m.Unlock(3)
	}()
	select {
	case <-entered:
		t.Fatal("tree CSR violated")
	case <-time.After(50 * time.Millisecond):
	}

	m.Lock(0) // replacement recovers immediately
	m.Unlock(0)
	select {
	case <-entered:
	case <-time.After(5 * time.Second):
		t.Fatal("process 3 starved after recovery")
	}
}

// treeLockRetry / treeUnlockRetry implement the recovery protocol against
// injected crashes, as a real supervisor would.
func treeLockRetry(m *rme.TreeMutex, proc int) {
	for {
		ok := func() (ok bool) {
			defer func() {
				if r := recover(); r != nil {
					if _, isCrash := rme.AsCrash(r); !isCrash {
						panic(r)
					}
				}
			}()
			m.Lock(proc)
			return true
		}()
		if ok {
			return
		}
	}
}

func treeUnlockRetry(m *rme.TreeMutex, proc int) {
	for {
		ok := func() (ok bool) {
			defer func() {
				if r := recover(); r != nil {
					if _, isCrash := rme.AsCrash(r); !isCrash {
						panic(r)
					}
				}
			}()
			m.Unlock(proc)
			return true
		}()
		if ok {
			return
		}
		treeLockRetry(m, proc)
	}
}

func TestTreeRandomCrashStorm(t *testing.T) {
	const n, iters = 6, 100
	m := rme.NewTree(n)
	var calls atomic.Uint64
	m.SetCrashFunc(func(port int, point string) bool {
		return xrand.Mix64(calls.Add(1))%1499 == 0
	})
	counter := 0
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(proc int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				treeLockRetry(m, proc)
				counter++
				treeUnlockRetry(m, proc)
			}
		}(w)
	}
	wg.Wait()
	if counter != n*iters {
		t.Fatalf("counter = %d, want %d", counter, n*iters)
	}
}

func TestTreePanicsOnMisuse(t *testing.T) {
	tests := []struct {
		name string
		fn   func()
	}{
		{"zero procs", func() { rme.NewTree(0) }},
		{"bad proc", func() { rme.NewTree(2).Lock(5) }},
		{"unlock without lock", func() { rme.NewTree(2).Unlock(0) }},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatal("no panic")
				}
			}()
			tt.fn()
		})
	}
}

// TestTreeLevelStats drives an instrumented tree under contention and
// checks the per-level RMR-proxy counters: one stats block per level, and
// a contended run must record hand-off wakes at the leaf level.
func TestTreeLevelStats(t *testing.T) {
	const n, iters = 8, 50
	m := rme.NewTree(n, rme.WithTreeInstrumentation(true))
	ls := m.LevelStats()
	if len(ls) != m.Levels() {
		t.Fatalf("LevelStats len = %d, want %d levels", len(ls), m.Levels())
	}
	var wg sync.WaitGroup
	for p := 0; p < n; p++ {
		wg.Add(1)
		go func(proc int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				m.Lock(proc)
				runtime.Gosched() // keep the CS across a scheduler boundary
				m.Unlock(proc)
			}
		}(p)
	}
	wg.Wait()
	var publishes uint64
	for _, s := range ls {
		publishes += s.Publishes.Load()
	}
	if publishes == 0 {
		t.Fatal("contended instrumented run recorded no wait episodes")
	}
	if rme.NewTree(4).LevelStats() != nil {
		t.Fatal("LevelStats non-nil without WithTreeInstrumentation")
	}
}

func TestTreeLevels(t *testing.T) {
	if l := rme.NewTree(16).Levels(); l != 4 { // arity 2
		t.Fatalf("levels(16) = %d, want 4", l)
	}
	if l := rme.NewTree(64).Levels(); l != 4 { // arity 3
		t.Fatalf("levels(64) = %d, want 4", l)
	}
}

// TestTreeUnlockCrashEveryWindow crash-injects a release through every
// window of Unlock — the tree-level phase-word steps (T.down, T.cursor,
// T.idle) and every node-level exit step in between — and requires the
// next Lock on the same identity to recover. The 1-process tree is the
// regression case for the release-cursor encoding: its path table is
// empty, and the pre-fix encoding of cursor -1 collided with cursor 0, so
// a crash at T.down made the recovery Lock index path[0] out of range.
func TestTreeUnlockCrashEveryWindow(t *testing.T) {
	for _, n := range []int{1, 5} {
		t.Run(fmt.Sprintf("n%d", n), func(t *testing.T) {
			for window := 1; ; window++ {
				m := rme.NewTree(n)
				m.Lock(0)
				var count atomic.Int64
				m.SetCrashFunc(func(port int, point string) bool {
					return count.Add(1) == int64(window)
				})
				crashed := func() (crashed bool) {
					defer func() {
						if r := recover(); r != nil {
							if _, ok := rme.AsCrash(r); !ok {
								panic(r)
							}
							crashed = true
						}
					}()
					m.Unlock(0)
					return false
				}()
				m.SetCrashFunc(nil)
				if !crashed {
					// The window index walked past the last crash point:
					// every window has been exercised.
					if window == 1 {
						t.Fatal("no crash windows fired at all")
					}
					break
				}
				// The recovery Lock must replay the interrupted release and
				// then acquire; pre-fix this panicked with an out-of-range
				// path index on the n=1 tree.
				m.Lock(0)
				if !m.Held(0) {
					t.Fatalf("window %d: recovery Lock did not acquire", window)
				}
				m.Unlock(0)
			}
		})
	}
}

// TestTreeLevelStatsSnapshot pins LevelStats's snapshot semantics: the
// returned slice is a copy, so overwriting its elements cannot detach the
// tree's live counter blocks.
func TestTreeLevelStatsSnapshot(t *testing.T) {
	m := rme.NewTree(8, rme.WithTreeInstrumentation(true))
	ls := m.LevelStats()
	orig := make([]*rme.WaitStats, len(ls))
	copy(orig, ls)
	for i := range ls {
		ls[i] = nil // must only mutate the caller's copy
	}
	again := m.LevelStats()
	for i := range again {
		if again[i] != orig[i] {
			t.Fatalf("level %d: LevelStats element changed after caller mutation", i)
		}
		if again[i] == nil {
			t.Fatalf("level %d: live counter block lost", i)
		}
	}
}
