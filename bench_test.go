package rme_test

// One benchmark per experiment in EXPERIMENTS.md. The simulated benchmarks
// (E1–E11) report the paper's metric — RMRs per passage in the CC/DSM cost
// model — via b.ReportMetric; wall-clock ns/op for them measures only the
// simulator. E12 measures real wall-clock throughput of the runtime lock.

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	rme "github.com/rmelib/rme"
	"github.com/rmelib/rme/internal/core"
	"github.com/rmelib/rme/internal/experiments"
	"github.com/rmelib/rme/internal/ghrepro"
	"github.com/rmelib/rme/internal/mcs"
	"github.com/rmelib/rme/internal/memsim"
	"github.com/rmelib/rme/internal/rlock"
	"github.com/rmelib/rme/internal/rtbench"
	"github.com/rmelib/rme/internal/sched"
	"github.com/rmelib/rme/internal/sigobj"
	"github.com/rmelib/rme/internal/tree"
	"github.com/rmelib/rme/internal/wait"
	"github.com/rmelib/rme/internal/xrand"
)

// BenchmarkE1Signal measures one set()/wait() handshake of the Signal
// object (Theorem 1) per iteration.
func BenchmarkE1Signal(b *testing.B) {
	for _, model := range []memsim.Model{memsim.CC, memsim.DSM} {
		b.Run(model.String(), func(b *testing.B) {
			mem := memsim.New(memsim.Config{Model: model, Procs: 2})
			before := mem.TotalRMRs()
			for i := 0; i < b.N; i++ {
				sig := sigobj.Alloc(mem, 0)
				w := sigobj.NewWaiter(mem, 1)
				w.Begin(sig)
				for j := 0; j < 20; j++ {
					w.Step()
				}
				s := sigobj.NewSetter(mem, 0)
				s.Begin(sig)
				for !s.Step() {
				}
				for !w.Step() {
				}
			}
			b.ReportMetric(float64(mem.TotalRMRs()-before)/float64(b.N), "RMRs/op")
		})
	}
}

// simPassages drives the given clients for b.N passages in steady state
// (after a warm-up that lets every process complete two passages, so the
// cost of half-finished acquisitions does not pollute the average) and
// reports RMRs per passage.
func simPassages(b *testing.B, mem *memsim.Memory, procs []sched.Proc) {
	b.Helper()
	rng := xrand.New(12345)
	warm := &sched.Runner{
		Procs:    procs,
		Sched:    sched.Random{Src: rng},
		StopWhen: sched.AllPassagesAtLeast(procs, 2),
		MaxSteps: 1 << 62,
	}
	if err := warm.Run(); err != nil {
		b.Fatal(err)
	}
	startRMRs := mem.TotalRMRs()
	var startPassages uint64
	for _, p := range procs {
		startPassages += p.Passages()
	}
	r := &sched.Runner{
		Procs:    procs,
		Sched:    sched.Random{Src: rng},
		StopWhen: sched.TotalPassagesAtLeast(procs, startPassages+uint64(b.N)),
		MaxSteps: 1 << 62,
	}
	if err := r.Run(); err != nil {
		b.Fatal(err)
	}
	var passages uint64
	for _, p := range procs {
		passages += p.Passages()
	}
	b.ReportMetric(float64(mem.TotalRMRs()-startRMRs)/float64(passages-startPassages), "RMRs/passage")
}

// BenchmarkE2FlatPassage: crash-free passages of the flat k-ported
// algorithm (Theorem 2's O(1) per passage).
func BenchmarkE2FlatPassage(b *testing.B) {
	for _, model := range []memsim.Model{memsim.CC, memsim.DSM} {
		for _, k := range []int{2, 8, 64} {
			b.Run(fmt.Sprintf("%s/k%d", model, k), func(b *testing.B) {
				mem := memsim.New(memsim.Config{Model: model, Procs: k})
				sh := core.NewShared(mem, core.Config{Ports: k})
				procs := make([]sched.Proc, k)
				for i := 0; i < k; i++ {
					procs[i] = core.NewProc(sh, i, i, 1)
				}
				simPassages(b, mem, procs)
			})
		}
	}
}

// BenchmarkE3CrashRecovery: one full crash-and-repair cycle per iteration
// (crash at line 14, recover through RLock and queue repair, enter the CS,
// exit). Theorem 2's O(f·k) term, measured per recovery.
func BenchmarkE3CrashRecovery(b *testing.B) {
	for _, k := range []int{4, 16} {
		b.Run(fmt.Sprintf("k%d", k), func(b *testing.B) {
			mem := memsim.New(memsim.Config{Model: memsim.DSM, Procs: k})
			sh := core.NewShared(mem, core.Config{Ports: k})
			procs := make([]sched.Proc, k)
			for i := 0; i < k; i++ {
				procs[i] = core.NewProc(sh, i, i, 0)
			}
			d := sched.NewDriver(procs...)
			before := mem.Stats(0).RMRs
			for i := 0; i < b.N; i++ {
				if !d.StepUntilPC(0, core.PCL14) {
					b.Fatal("no line 14")
				}
				d.Crash(0)
				if !d.FinishPassage(0) {
					b.Fatal("recovery did not complete")
				}
			}
			b.ReportMetric(float64(mem.Stats(0).RMRs-before)/float64(b.N), "RMRs/recovery")
		})
	}
}

// BenchmarkE4TreePassage: crash-free passages over the arbitration tree
// (Theorem 3's O(log n / log log n) per passage).
func BenchmarkE4TreePassage(b *testing.B) {
	for _, n := range []int{16, 64} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			mem := memsim.New(memsim.Config{Model: memsim.DSM, Procs: n})
			tr := tree.New(mem, tree.Config{Procs: n})
			procs := make([]sched.Proc, n)
			for i := 0; i < n; i++ {
				procs[i] = tree.NewProc(mem, tr, i, 1)
			}
			simPassages(b, mem, procs)
		})
	}
}

// BenchmarkE5Comparison: the head-to-head table, one sub-benchmark per
// algorithm at n=16 on DSM.
func BenchmarkE5Comparison(b *testing.B) {
	const n = 16
	b.Run("mcs", func(b *testing.B) {
		mem := memsim.New(memsim.Config{Model: memsim.DSM, Procs: n})
		lk := mcs.New(mem, n)
		procs := make([]sched.Proc, n)
		for i := 0; i < n; i++ {
			procs[i] = mcs.NewProc(mem, lk, i, 1)
		}
		simPassages(b, mem, procs)
	})
	b.Run("gr-tournament", func(b *testing.B) {
		mem := memsim.New(memsim.Config{Model: memsim.DSM, Procs: n})
		lk := rlock.New(mem, n)
		procs := make([]sched.Proc, n)
		for i := 0; i < n; i++ {
			procs[i] = rlock.NewProc(mem, lk, i, i, 1)
		}
		simPassages(b, mem, procs)
	})
	b.Run("flat", func(b *testing.B) {
		mem := memsim.New(memsim.Config{Model: memsim.DSM, Procs: n})
		sh := core.NewShared(mem, core.Config{Ports: n})
		procs := make([]sched.Proc, n)
		for i := 0; i < n; i++ {
			procs[i] = core.NewProc(sh, i, i, 1)
		}
		simPassages(b, mem, procs)
	})
	b.Run("tree", func(b *testing.B) {
		mem := memsim.New(memsim.Config{Model: memsim.DSM, Procs: n})
		tr := tree.New(mem, tree.Config{Procs: n})
		procs := make([]sched.Proc, n)
		for i := 0; i < n; i++ {
			procs[i] = tree.NewProc(mem, tr, i, 1)
		}
		simPassages(b, mem, procs)
	})
}

// BenchmarkE6Figure5 replays the whole Figure 5 walkthrough per iteration.
func BenchmarkE6Figure5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Figure5States(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE7Scenario1 replays the Appendix A.1 deadlock reproduction
// (with a reduced hang budget) per iteration.
func BenchmarkE7Scenario1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := ghrepro.RunScenario1(20_000)
		if err != nil || !out.Deadlocked {
			b.Fatalf("scenario 1 did not reproduce: %v", err)
		}
	}
}

// BenchmarkE8Scenario2 replays the Appendix A.2 starvation reproduction
// per iteration.
func BenchmarkE8Scenario2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		out, err := ghrepro.RunScenario2(100_000)
		if err != nil || !out.DuplicatePredecessor || !out.P6Starved {
			b.Fatalf("scenario 2 did not reproduce: %v", err)
		}
	}
}

// BenchmarkE9Ablation: one full fragment-everything-and-repair-all cycle
// per iteration, shallow vs deep exploration (§1.5 bullet 3).
func BenchmarkE9Ablation(b *testing.B) {
	const k = 16
	for _, deep := range []bool{false, true} {
		name := "shallow"
		if deep {
			name = "deep"
		}
		b.Run(name, func(b *testing.B) {
			var rmrs, locals uint64
			for i := 0; i < b.N; i++ {
				mem := memsim.New(memsim.Config{Model: memsim.CC, Procs: k, CacheCapacity: 4})
				sh := core.NewShared(mem, core.Config{Ports: k, DeepExploration: deep})
				procs := make([]sched.Proc, k)
				for j := 0; j < k; j++ {
					procs[j] = core.NewProc(sh, j, j, 0)
				}
				d := sched.NewDriver(procs...)
				for p := 0; p < k; p++ {
					if !d.StepUntilPC(p, core.PCL14) {
						b.Fatal("no line 14")
					}
					d.Crash(p)
				}
				for p := 0; p < k; p++ {
					if !d.StepUntilPC(p, core.PCL24) {
						b.Fatal("no line 24")
					}
				}
				for p := 0; p < k; p++ {
					if !d.StepUntilPC(p, core.PCL25) {
						b.Fatal("repair did not finish")
					}
				}
				for p := 0; p < k; p++ {
					rmrs += mem.Stats(p).RMRs
					locals += mem.Stats(p).LocalSteps
				}
			}
			b.ReportMetric(float64(rmrs)/float64(b.N*k), "RMRs/repair")
			b.ReportMetric(float64(locals)/float64(b.N*k), "localsteps/repair")
		})
	}
}

// BenchmarkE10Exit: one wait-free Exit per iteration (Lemma 6), with
// rivals parked mid-Try. A fresh world per iteration keeps the adversarial
// pile-up identical every time.
func BenchmarkE10Exit(b *testing.B) {
	const k = 8
	maxSteps := 0
	for i := 0; i < b.N; i++ {
		mem := memsim.New(memsim.Config{Model: memsim.DSM, Procs: k})
		sh := core.NewShared(mem, core.Config{Ports: k})
		procs := make([]sched.Proc, k)
		for j := 0; j < k; j++ {
			procs[j] = core.NewProc(sh, j, j, 0)
		}
		d := sched.NewDriver(procs...)
		if !d.StepUntilSection(0, sched.CS) {
			b.Fatal("no CS")
		}
		for p := 1; p < k; p++ {
			d.Step(p, 11) // rivals stall mid-Try
		}
		if !d.StepUntilSection(0, sched.Exit) {
			b.Fatal("no Exit")
		}
		steps := 0
		for procs[0].Section() == sched.Exit {
			d.Step(0, 1)
			steps++
		}
		if steps > maxSteps {
			maxSteps = steps
		}
	}
	b.ReportMetric(float64(maxSteps), "max-exit-steps")
}

// BenchmarkE11InvariantCheck measures the Appendix C checker itself (the
// verification overhead of the reproduction, not a paper claim).
func BenchmarkE11InvariantCheck(b *testing.B) {
	const k = 8
	mem := memsim.New(memsim.Config{Model: memsim.DSM, Procs: k})
	sh := core.NewShared(mem, core.Config{Ports: k})
	procs := make([]*core.Proc, k)
	sp := make([]sched.Proc, k)
	for i := 0; i < k; i++ {
		procs[i] = core.NewProc(sh, i, i, 1)
		sp[i] = procs[i]
	}
	r := &sched.Runner{Procs: sp, StopWhen: sched.TotalPassagesAtLeast(sp, 20)}
	if err := r.Run(); err != nil {
		b.Fatal(err)
	}
	ck := core.NewChecker(sh, procs)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ck.Check(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE12RuntimeThroughput measures the runtime lock: real goroutines,
// wall-clock, across worker counts, wait strategies (allStrategies, the
// same axis cmd/rmebench -json measures), and with injected crashes. The strategy-matrix cells yield inside and after the critical
// section, like internal/rtbench's workload: a ~100ns CS that never
// crosses a scheduler boundary is always already unlocked when the next
// worker runs, and the cell would silently measure sequential fast paths
// instead of the strategy's handoff machinery.
func BenchmarkE12RuntimeThroughput(b *testing.B) {
	for _, s := range allStrategies() {
		b.Run("g4/"+s.name, func(b *testing.B) {
			const g = 4
			m := rme.New(g, rme.WithWaitStrategy(s.st))
			b.ReportAllocs()
			var wg sync.WaitGroup
			per := b.N / g
			for w := 0; w < g; w++ {
				wg.Add(1)
				go func(port int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						m.Lock(port)
						runtime.Gosched() // critical-section work
						m.Unlock(port)
						runtime.Gosched() // non-critical-section work
					}
				}(w)
			}
			wg.Wait()
		})
	}
	for _, g := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("g%d", g), func(b *testing.B) {
			m := rme.New(g)
			var next atomic.Int64
			b.ResetTimer()
			var wg sync.WaitGroup
			per := b.N / g
			for w := 0; w < g; w++ {
				wg.Add(1)
				go func(port int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						m.Lock(port)
						next.Add(1)
						m.Unlock(port)
					}
				}(w)
			}
			wg.Wait()
		})
	}
	b.Run("g4-with-crashes", func(b *testing.B) {
		m := rme.New(4)
		var calls atomic.Uint64
		m.SetCrashFunc(func(port int, point string) bool {
			return xrand.Mix64(calls.Add(1))%4096 == 0
		})
		lock := func(port int) {
			for {
				ok := func() (ok bool) {
					defer func() {
						if r := recover(); r != nil {
							if _, isCrash := rme.AsCrash(r); !isCrash {
								panic(r)
							}
						}
					}()
					m.Lock(port)
					return true
				}()
				if ok {
					return
				}
			}
		}
		unlock := func(port int) {
			for {
				ok := func() (ok bool) {
					defer func() {
						if r := recover(); r != nil {
							if _, isCrash := rme.AsCrash(r); !isCrash {
								panic(r)
							}
						}
					}()
					m.Unlock(port)
					return true
				}()
				if ok {
					return
				}
				lock(port)
			}
		}
		b.ResetTimer()
		var wg sync.WaitGroup
		per := b.N / 4
		for w := 0; w < 4; w++ {
			wg.Add(1)
			go func(port int) {
				defer wg.Done()
				for i := 0; i < per; i++ {
					lock(port)
					unlock(port)
				}
			}(w)
		}
		wg.Wait()
	})
}

// BenchmarkE13FastPath measures the crash-free uncontended passage — the
// paper's O(1)-RMR fast path. The passage must not allocate: the queue
// node is recycled once its successor consumed it, and an already-set cs
// signal short-circuits before publishing a spin word.
func BenchmarkE13FastPath(b *testing.B) {
	m := rme.New(1)
	for i := 0; i < 8; i++ { // warm the free list past its consume lag
		m.Lock(0)
		m.Unlock(0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Lock(0)
		m.Unlock(0)
	}
}

// BenchmarkE15TreeHandoff measures the arbitration tree under contention —
// the runtime-port counterpart of E4's simulated O(log n / log log n)
// bound — with per-level wake counters reported as the RMR proxy for the
// tree hand-off cost.
func BenchmarkE15TreeHandoff(b *testing.B) {
	for _, n := range []int{8, 16} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			m := rme.NewTree(n, rme.WithTreeInstrumentation(true))
			b.ReportAllocs()
			var wg sync.WaitGroup
			per := b.N/n + 1
			for w := 0; w < n; w++ {
				wg.Add(1)
				go func(proc int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						m.Lock(proc)
						runtime.Gosched() // CS work, as in internal/rtbench
						m.Unlock(proc)
						runtime.Gosched()
					}
				}(w)
			}
			wg.Wait()
			var wakes uint64
			for _, ls := range m.LevelStats() {
				wakes += ls.Wakes.Load()
			}
			b.ReportMetric(float64(wakes)/float64(per*n), "wakes/passage")
		})
	}
}

// BenchmarkE18MCSHandoff measures the recoverable MCS queue lock under
// contention — the O(1)-RMR backend of the three-way shard showdown —
// with the wait engine's wake counter reported per passage. Read the
// wakes/passage column against E15's: the MCS release wakes exactly the
// queue successor (≤1 per passage at any port count), where the tree
// climbs O(log n / log log n) levels and the committed baselines show
// ~4x that.
func BenchmarkE18MCSHandoff(b *testing.B) {
	for _, n := range []int{8, 64} {
		b.Run(fmt.Sprintf("n%d", n), func(b *testing.B) {
			var stats rme.WaitStats
			m := rme.NewMCS(n, rme.WithWaitStrategy(
				wait.Instrumented(rme.YieldWaitStrategy(), &stats)))
			b.ReportAllocs()
			var wg sync.WaitGroup
			per := b.N/n + 1
			for w := 0; w < n; w++ {
				wg.Add(1)
				go func(port int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						m.Lock(port)
						runtime.Gosched() // CS work, as in internal/rtbench
						m.Unlock(port)
						runtime.Gosched()
					}
				}(w)
			}
			wg.Wait()
			b.ReportMetric(float64(stats.Wakes.Load())/float64(per*n), "wakes/passage")
		})
	}
}

// BenchmarkE14Oversubscribed runs ports = 32·GOMAXPROCS worker goroutines
// through the lock — the workload that makes pure spinning pathological
// and that the spin-then-park strategy exists for. The pure-spin strategy
// is deliberately excluded (it would measure scheduler-quantum burn, not
// the lock).
func BenchmarkE14Oversubscribed(b *testing.B) {
	ports := 32 * runtime.GOMAXPROCS(0)
	for _, s := range allStrategies() {
		if s.name == "spin" {
			continue
		}
		b.Run(s.name, func(b *testing.B) {
			m := rme.New(ports, rme.WithWaitStrategy(s.st))
			b.ReportAllocs()
			var wg sync.WaitGroup
			per := b.N/ports + 1
			for w := 0; w < ports; w++ {
				wg.Add(1)
				go func(port int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						m.Lock(port)
						runtime.Gosched() // CS work, as in internal/rtbench
						m.Unlock(port)
						runtime.Gosched()
					}
				}(w)
			}
			wg.Wait()
		})
	}
}

// BenchmarkE16KeyedTable measures the keyed lock service: 16 worker
// goroutines locking uniform or zipf-distributed keys striped over a
// 32×4 arena — the many-resources workload class the flat benchmarks
// cannot express. It drives rtbench's exported keyed workload driver, so
// it measures the exact passage shape the BENCH_keyed.json gate records.
// The stripes are flat, as in the gate's cells. Crash-free, a keyed
// passage (lease acquisition, hashing, recoverable lock, release)
// allocates nothing.
func BenchmarkE16KeyedTable(b *testing.B) {
	const workers = 16
	for _, zipf := range []bool{false, true} {
		name := "uniform"
		if zipf {
			name = "zipf"
		}
		b.Run(name, func(b *testing.B) {
			tbl := rme.NewLockTable(32, 4, rme.WithTableSeed(1), rme.WithShardBackend(rme.FlatBackend))
			defer tbl.Close()
			b.ReportAllocs()
			b.ResetTimer()
			rtbench.RunKeyedPassages(tbl, workers, b.N, zipf, 1<<20, false)
		})
	}
}

// BenchmarkE17AsyncBatch measures the keyed table's asynchronous
// pipeline (LockAsync → receive → Grant.Unlock under zipf traffic) and
// the hot-stripe batch amortization pair: sequential-8 locks one
// stripe's keys one at a time, batch-8 covers the same group with one
// DoBatch — per-key ns between those two is the amortization factor the
// BENCH_keyed_async.json gate pins at ≥2x. All three drive rtbench's
// exported runners on flat stripes, so they measure the exact shapes the
// gate records.
func BenchmarkE17AsyncBatch(b *testing.B) {
	const workers = 8
	b.Run("async_zipf", func(b *testing.B) {
		tbl := rme.NewLockTable(32, 4, rme.WithTableSeed(1), rme.WithShardBackend(rme.FlatBackend))
		defer tbl.Close()
		b.ReportAllocs()
		b.ResetTimer()
		rtbench.RunAsyncKeyedPassages(tbl, 2*workers, b.N, true, 1<<20)
	})
	for _, batch := range []bool{false, true} {
		name := "hot_sequential8"
		if batch {
			name = "hot_batch8"
		}
		b.Run(name, func(b *testing.B) {
			tbl := rme.NewLockTable(32, 4, rme.WithTableSeed(1), rme.WithShardBackend(rme.FlatBackend))
			defer tbl.Close()
			b.ReportAllocs()
			b.ResetTimer()
			rtbench.RunHotKeyedPassages(tbl, workers, b.N, 8, batch, 64)
		})
	}
}
