// Package rtbench measures the runtime lock stack — real goroutines, wall
// clock — across the wait-strategy axis, together with the wait engine's
// RMR-proxy counters. cmd/rmebench's -json mode serializes the results to
// BENCH_<scenario>.json files so successive changes leave a comparable
// performance trajectory in the repository.
//
// Three lock shapes are measured: the flat k-ported Mutex (uncontended,
// contended8, oversubscribed); the n-process arbitration TreeMutex
// (tree, tree_oversubscribed — both recorded in BENCH_tree.json), whose
// per-level wake counters expose the paper's O(log n / log log n) hand-off
// structure; and the keyed LockTable (keyed_uniform and keyed_zipf in
// BENCH_keyed.json, crash-free so the zero-allocation gate applies, plus
// keyed_crash in its own file with a deterministic crash mix whose
// recovery allocations are schedule-dependent and therefore kept out of
// the allocs/op regression gate).
//
// The keyed table's asynchronous pipeline has its own file group,
// BENCH_keyed_async.json, holding three scenarios that are meant to be
// read together: keyed_async (the completion-based LockAsync passage
// under zipf traffic), keyed_hot8 (eight workers locking a single
// stripe's keys one by one — the per-key cost batching exists to beat),
// and keyed_batch (the same hot-stripe traffic in DoBatch groups of 8;
// ns/op is per key in both, so batch amortization reads directly as the
// keyed_batch : keyed_hot8 ratio, ≥2x on the committed baselines). All
// three are crash-free and inside the zero-allocation gate.
//
// The shard-backend comparison is a three-way showdown across two file
// groups: keyed_hiport and keyed_tree (BENCH_keyed_tree.json) run one
// identical high-port-count workload on flat and tree shards
// respectively, and keyed_mcs (BENCH_keyed_mcs.json) runs the very same
// workload on the recoverable MCS queue-lock shards, so the cost of the
// tree's sub-logarithmic structure and the MCS lock's O(1) local-spin
// hand-off at big k are committed, gate-pinned numbers rather than
// claims. All three cells are crash-free and inside the zero-allocation
// gate.
//
// The supervised table has its own cell, keyed_supervised
// (BENCH_keyed_supervised.json): a skewed workload on a table whose
// WithSupervisor orphan sweep ticks every 200µs throughout the measured
// pass. Crash-free and inside the zero-allocation gate, so a supervisor
// whose steady-state tick allocates fails CI.
//
// The system-wide crash tier (BENCH_syscrash.json) prices the whole-table
// failure model: keyed_syscrash and keyed_syscrash_1m each measure full
// crash/checkpoint/restore rounds at 1e5- and 1e6-key scale, with ns/op
// defined as time-to-first-grant after the crash so the CI ns gate pins
// recovery latency. The cells carry the per-sample AllocExempt flag — a
// restore round reconstructs whole arenas, so allocs/op measures
// construction, not leaks — which keeps the file inside the -compare gate
// for latency while staying out of the zero-allocation claim.
//
// Unlike the E1–E11 experiment harness (internal/experiments), these
// numbers are hardware- and scheduler-dependent; the JSON therefore
// records GOMAXPROCS alongside every sample.
//
// Measurement is a fixed passage count per scenario rather than
// testing.Benchmark's adaptive calibration: a contended lock's cost per
// op is sharply nonlinear in N (small-N rounds run effectively
// uncontended), which makes the calibrator extrapolate absurd iteration
// targets under oversubscription.
package rtbench

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	rme "github.com/rmelib/rme"
	"github.com/rmelib/rme/internal/wait"
	"github.com/rmelib/rme/internal/xrand"
)

// Scenario is one workload shape.
type Scenario struct {
	Name string
	// File is the basename for BENCH_<File>.json; empty means Name.
	// Scenarios may share a file (the tree pair does).
	File string
	// Tree drives an n-process TreeMutex instead of the flat Mutex; Ports
	// is then the process count.
	Tree bool
	// Keyed drives a LockTable instead of a single lock; Ports is then the
	// worker-goroutine count, and Keys/Shards/ShardPorts shape the
	// workload and arena.
	Keyed bool
	// Backend selects the keyed table's shard lock shape (flat Mutex,
	// arbitration TreeMutex, recoverable MCS queue lock, or the
	// port-count Auto default). Keyed scenarios only. Every committed
	// scenario names its shape, so each cell keeps measuring the shape
	// its baseline recorded whatever Auto resolves to.
	Backend rme.ShardBackend
	// Zipf draws keys zipf-distributed (hot-key contention) instead of
	// uniformly. Keyed scenarios only.
	Zipf bool
	// Async drives the table's completion-based pipeline (LockAsync →
	// receive → Grant.Unlock) instead of the blocking Lock. Keyed
	// scenarios only.
	Async bool
	// HotStripe restricts the key population to a single stripe — the
	// deliberately-degenerate hot-key shape the batch API amortizes.
	// Keyed scenarios only.
	HotStripe bool
	// Batch, when > 1, groups each worker's passages into DoBatch calls
	// of this many keys; Iters still counts keys, so ns/op stays per key
	// and reads directly against the same scenario with Batch == 0.
	// HotStripe scenarios only.
	Batch int
	// Keys is the keyspace size for keyed scenarios.
	Keys uint64
	// Shards and ShardPorts are the keyed table's arena dimensions.
	Shards, ShardPorts int
	// CrashEvery, when non-zero, injects a crash about once per that many
	// protocol steps during the measured pass (deterministic, counter
	// based); the workers recover with the reclaim-and-retry supervisor
	// pattern. Keyed scenarios only.
	CrashEvery uint64
	// Supervised attaches a WithSupervisor orphan-sweep loop ticking every
	// 200µs, so a benchmark-sized run spans hundreds of ticks and the
	// measured pass prices passages with the supervisor live. Keyed
	// scenarios only.
	Supervised bool
	// AbortEvery, when non-zero, drives the table through LockContext and
	// sheds every AbortEvery-th passage with a pre-expired deadline (the
	// deterministic zero-allocation shed path); the rest acquire under a
	// live cancellable context, so the whole cancel plumbing is on the
	// measured path. Keyed scenarios only, crash-free only.
	AbortEvery uint64
	// DispatcherPool, when > 0, pins the shared async executor's worker
	// bound (WithDispatcherPool) instead of the GOMAXPROCS default — the
	// knob the many-stripe async cell uses to demonstrate that dispatcher
	// cost is a property of the pool, not the stripe count. Keyed async
	// scenarios only.
	DispatcherPool int
	// AllocExempt marks every cell of the scenario outside the allocs/op
	// gate (the per-sample Sample.AllocExempt flag, until now set only by
	// the syscrash rounds). The many-stripe cell needs it for the same
	// construction-not-leak reason: a 512×16 arena has 8192 (stripe, port)
	// wait-node slots whose pools fill only from retired passages, so
	// first-touch qnode builds trickle through the whole measured pass as
	// each stripe's per-port high-water mark ratchets up — a decaying
	// one-time cost proportional to arena size and dependent on the
	// schedule, not a per-op leak (the profile shows zero steady-state
	// allocation sites). The gate still pins the cell's ns/op.
	AllocExempt bool
	// SysCrash replaces the passage loop with full-table crash rounds:
	// each measured iteration builds an arena, parks one live tenancy per
	// worker inside its critical section, kills the whole population at
	// once (nobody ever releases — the process-death model), checkpoints,
	// and restores into a fresh table whose orphan sweep runs concurrently
	// with a waiting acquirer. NsPerOp records time-to-first-grant after
	// the crash — restore plus however much recovery the first grant had
	// to wait for — so the ns regression gate pins recovery latency; the
	// full-heal time is recorded alongside. Keyed scenarios only.
	SysCrash bool
	// Ports returns the port count (= worker goroutines), which may
	// depend on GOMAXPROCS.
	Ports func() int
	// Iters is the total measured passage count across all ports.
	Iters int
	// SkipStrategies names strategies that are pathological for this
	// shape and excluded by default (pure spinning while oversubscribed).
	SkipStrategies []string
}

// FileName returns the basename under which the scenario's samples are
// recorded (BENCH_<FileName>.json).
func (sc Scenario) FileName() string {
	if sc.File != "" {
		return sc.File
	}
	return sc.Name
}

// Scenarios returns the benchmark matrix's workload axis.
func Scenarios() []Scenario {
	return []Scenario{
		{Name: "uncontended", Ports: func() int { return 1 }, Iters: 500_000},
		{Name: "contended8", Ports: func() int { return 8 }, Iters: 100_000},
		{
			Name:  "oversubscribed",
			Ports: func() int { return 32 * runtime.GOMAXPROCS(0) },
			Iters: 20_000,
			// A pure spinner with more runnable waiters than processors
			// burns whole scheduler quanta per handoff; the scenario
			// exists to show the parking strategy fixing exactly that.
			SkipStrategies: []string{"spin"},
		},
		{
			Name: "tree", File: "tree", Tree: true,
			Ports: func() int { return 16 },
			Iters: 50_000,
		},
		{
			Name: "tree_oversubscribed", File: "tree", Tree: true,
			Ports:          func() int { return 8 * runtime.GOMAXPROCS(0) },
			Iters:          10_000,
			SkipStrategies: []string{"spin"},
		},
		{
			Name: "keyed_uniform", File: "keyed", Keyed: true,
			Ports:  func() int { return 16 },
			Iters:  100_000,
			Keys:   1 << 20,
			Shards: 32, ShardPorts: 4,
			Backend: rme.FlatBackend,
		},
		{
			Name: "keyed_zipf", File: "keyed", Keyed: true, Zipf: true,
			Ports:  func() int { return 16 },
			Iters:  100_000,
			Keys:   1 << 20,
			Shards: 32, ShardPorts: 4,
			Backend: rme.FlatBackend,
		},
		{
			// The crash mix lives in its own file group: recovery work
			// allocates amounts that depend on the schedule, so these
			// cells are recorded for trend-watching but excluded from the
			// CI allocs/op gate (which BENCH_keyed.json's crash-free
			// cells do enforce).
			Name: "keyed_crash", File: "keyed_crash", Keyed: true, Zipf: true,
			Ports:  func() int { return 16 },
			Iters:  30_000,
			Keys:   1 << 20,
			Shards: 32, ShardPorts: 4,
			Backend:    rme.FlatBackend,
			CrashEvery: 4096,
		},
		{
			// The abort tier under zipf traffic, one cell per shard
			// backend (BENCH_keyed_abort.json): every passage goes through
			// LockContext — live cancellable context on the grant path, a
			// pre-expired deadline on every 100th (a 1% shed rate) — so
			// the deadline-aware entry point's cost sits directly against
			// keyed_zipf's plain Lock numbers. Both the crash-free grant
			// passages and the deterministic pre-expired sheds allocate
			// nothing, so unlike keyed_crash this file group IS inside the
			// allocs/op gate: a cancel path that starts allocating fails
			// CI, which is the point of committing it.
			Name: "keyed_abort", File: "keyed_abort", Keyed: true, Zipf: true,
			Ports:  func() int { return 16 },
			Iters:  30_000,
			Keys:   1 << 20,
			Shards: 32, ShardPorts: 4,
			AbortEvery: 100,
			Backend:    rme.FlatBackend,
		},
		{
			Name: "keyed_abort_tree", File: "keyed_abort", Keyed: true, Zipf: true,
			Ports:  func() int { return 16 },
			Iters:  30_000,
			Keys:   1 << 20,
			Shards: 32, ShardPorts: 4,
			AbortEvery: 100,
			Backend:    rme.TreeBackend,
		},
		{
			Name: "keyed_abort_mcs", File: "keyed_abort", Keyed: true, Zipf: true,
			Ports:  func() int { return 16 },
			Iters:  30_000,
			Keys:   1 << 20,
			Shards: 32, ShardPorts: 4,
			AbortEvery: 100,
			Backend:    rme.MCSBackend,
		},
		{
			// The async pipeline under the same zipf traffic as
			// keyed_zipf: each passage is LockAsync → receive → Unlock,
			// so the cell prices the dispatcher hop and completion
			// delivery against the blocking path's numbers.
			Name: "keyed_async", File: "keyed_async", Keyed: true, Async: true, Zipf: true,
			Ports:  func() int { return 16 },
			Iters:  60_000,
			Keys:   1 << 20,
			Shards: 32, ShardPorts: 4,
			Backend: rme.FlatBackend,
		},
		{
			// The shared-executor scaling cell (BENCH_keyed_pooled.json):
			// the keyed_async pipeline stretched over a 512-stripe × 16-port
			// arena with the dispatcher pool pinned to 8 workers. Under the
			// old one-goroutine-per-stripe dispatcher this shape cost 512
			// parked goroutines before the first request moved; the cell's
			// Goroutines sample records the pooled footprint (workers + 8
			// dispatchers + housekeeping). Alloc-exempt — see the
			// Scenario.AllocExempt doc: the arena's 8192 wait-node slots
			// fill lazily, so first-touch builds trickle through the run —
			// but the executor itself contributes nothing to that figure:
			// scheduling a stripe onto the run queue allocates zero, which
			// the keyed_async gate pins at 0.000 on every backend and the
			// allocation profile of this very shape confirms (every
			// steady-state site is construction). Zipf keeps a hot
			// minority of stripes runnable at once, so the run queue and the
			// runnext locality slot both see traffic rather than degenerating
			// into one stripe bouncing through one worker.
			Name: "keyed_manyshards", File: "keyed_pooled", Keyed: true, Async: true, Zipf: true,
			Ports:  func() int { return 32 },
			Iters:  40_000,
			Keys:   1 << 20,
			Shards: 512, ShardPorts: 16,
			Backend:        rme.FlatBackend,
			DispatcherPool: 8,
			AllocExempt:    true,
		},
		{
			// The backend-comparison pair (BENCH_keyed_tree.json):
			// keyed_hiport and keyed_tree run the identical high-port
			// workload — the arena shape the multi-backend option exists
			// for — differing only in the shard lock shape, so tree-vs-
			// flat at big k reads directly off the file. 64 workers
			// saturate 2 stripes of 64 ports each (the tree builds
			// arity-3 nodes 4 levels deep for k=64); at that depth the
			// stripes are always queued, which is the regime that
			// justifies a 64-port arena in the first place.
			//
			// Yield cells only. The pair isolates the shard shape's
			// handoff structure (the tree's per-level wakes show up in
			// wakes_per_op, ~4x flat's single handoff); under spinpark
			// each of those extra wakes becomes a park/unpark scheduler
			// round trip, a cost of parking-under-oversubscription that
			// BENCH_tree.json's tree_oversubscribed cells already record
			// against the same flat baseline, and its 3-5x swing would
			// drown the per-cell regression signal this gate-pinned pair
			// exists for. Spin is auto-skipped past GOMAXPROCS anyway.
			Name: "keyed_hiport", File: "keyed_tree", Keyed: true,
			Ports:  func() int { return 64 },
			Iters:  40_000,
			Keys:   1 << 16,
			Shards: 2, ShardPorts: 64,
			Backend:        rme.FlatBackend,
			SkipStrategies: []string{"spinpark"},
		},
		{
			Name: "keyed_tree", File: "keyed_tree", Keyed: true,
			Ports:  func() int { return 64 },
			Iters:  40_000,
			Keys:   1 << 16,
			Shards: 2, ShardPorts: 64,
			Backend:        rme.TreeBackend,
			SkipStrategies: []string{"spinpark"},
		},
		{
			// Third leg of the backend showdown: the identical workload as
			// keyed_hiport / keyed_tree on recoverable MCS queue-lock
			// shards. Its own file group so the MCS baseline can be
			// (re)generated and gate-pinned independently of the flat/tree
			// pair; read the three files together. The MCS lock's single
			// CAS-tail handoff keeps wakes/op at ~flat's single-handoff
			// level while the queue removes the flat lock's wake-everyone
			// broadcast, which is the regime this backend exists for.
			Name: "keyed_mcs", File: "keyed_mcs", Keyed: true,
			Ports:  func() int { return 64 },
			Iters:  40_000,
			Keys:   1 << 16,
			Shards: 2, ShardPorts: 64,
			Backend:        rme.MCSBackend,
			SkipStrategies: []string{"spinpark"},
		},
		{
			// The supervised table cell (BENCH_keyed_supervised.json): a
			// skewed zipf workload on a 4-stripe × 48-port flat arena with
			// the reclaim-only supervisor ticking every 200µs in the
			// background. Crash-free and inside the zero-allocation gate: a
			// supervisor tick that starts allocating fails the gate.
			Name: "keyed_supervised", File: "keyed_supervised", Keyed: true, Zipf: true, Supervised: true,
			Ports:  func() int { return 16 },
			Iters:  40_000,
			Keys:   4096,
			Shards: 4, ShardPorts: 48,
			Backend: rme.FlatBackend,
			// Yield cells only: spin-then-park's parked handoffs run this
			// 16-worker workload an order of magnitude slower, and the
			// claim this file pins — a ticking supervisor adds no
			// allocation — does not depend on the wait strategy.
			SkipStrategies: []string{"spinpark"},
		},
		{
			// The system-wide crash tier (BENCH_syscrash.json): every
			// iteration is one full crash/recover round at a 1e5 keyspace —
			// 64 lessees die inside their critical sections across a
			// 128-stripe arena, the wreckage is checkpointed, and a fresh
			// incarnation restores from the bytes while an acquirer waits.
			// ns/op IS time-to-first-grant after the crash, which puts
			// recovery latency under the CI ns gate; full-heal time and
			// checkpoint size ride along in the sample. Restoring
			// reconstructs whole arenas, so allocations are dominated by
			// construction and the cells are flagged alloc-exempt (the
			// keyed_crash precedent, made per-sample).
			Name: "keyed_syscrash", File: "syscrash", Keyed: true, SysCrash: true,
			Ports:  func() int { return 64 },
			Iters:  8,
			Keys:   100_000,
			Shards: 128, ShardPorts: 8,
			Backend:        rme.FlatBackend,
			SkipStrategies: []string{"spin", "spinpark"},
		},
		{
			// The same crash/recover round an order of magnitude up: a 1e6
			// keyspace over a 512×16 arena with 128 dead lessees. Read
			// against keyed_syscrash to see how recovery latency scales
			// with arena size — the 2023 successor paper's O(1)-space
			// system-wide recovery claim predicts the per-stripe sweep is
			// what grows, not any per-process state.
			Name: "keyed_syscrash_1m", File: "syscrash", Keyed: true, SysCrash: true,
			Ports:  func() int { return 128 },
			Iters:  4,
			Keys:   1_000_000,
			Shards: 512, ShardPorts: 16,
			Backend:        rme.FlatBackend,
			SkipStrategies: []string{"spin", "spinpark"},
		},
		{
			// Hot-stripe baseline for the batch cells: eight workers lock
			// a single stripe's keys one at a time, paying the full
			// per-acquisition overhead per key.
			Name: "keyed_hot8", File: "keyed_async", Keyed: true, HotStripe: true,
			Ports:  func() int { return 8 },
			Iters:  400_000,
			Keys:   hotSpan,
			Shards: 32, ShardPorts: 4,
			Backend: rme.FlatBackend,
		},
		{
			// The same hot-stripe traffic, DoBatch-grouped 8 keys at a
			// time: one lease scan, one queue entry, and one handoff wake
			// per 8 keys. Read per-key ns/op against keyed_hot8 — the
			// committed baselines show the ≥2x amortization win the batch
			// API exists for.
			Name: "keyed_batch", File: "keyed_async", Keyed: true, HotStripe: true, Batch: 8,
			Ports:  func() int { return 8 },
			Iters:  400_000,
			Keys:   hotSpan,
			Shards: 32, ShardPorts: 4,
			Backend: rme.FlatBackend,
		},
	}
}

// hotSpan is the hot-stripe scenarios' key-population size: large enough
// that a batch is not one key repeated, small enough to stay hot.
// hotGroup is the group size both hot cells share — keyed_hot8 locks each
// group's keys sequentially, keyed_batch locks the group in one DoBatch —
// so their per-key numbers differ only by the acquisition pipeline.
const (
	hotSpan  = 64
	hotGroup = 8
)

// StrategyNames returns the strategy axis, in report order.
func StrategyNames() []string { return []string{"yield", "spin", "spinpark"} }

// ParseBackend maps a command-line backend name (case-insensitive) to
// the option value — the vocabulary cmd/rmebench's -backend flag
// accepts.
func ParseBackend(name string) (rme.ShardBackend, error) {
	switch strings.ToLower(name) {
	case "flat":
		return rme.FlatBackend, nil
	case "tree":
		return rme.TreeBackend, nil
	case "mcs":
		return rme.MCSBackend, nil
	case "auto":
		return rme.AutoBackend, nil
	}
	return rme.AutoBackend, fmt.Errorf("unknown shard backend %q (have: flat, tree, mcs, auto)", name)
}

func strategyByName(name string) rme.WaitStrategy {
	switch name {
	case "yield":
		return rme.YieldWaitStrategy()
	case "spin":
		return rme.SpinWaitStrategy()
	case "spinpark":
		return rme.SpinParkWaitStrategy(32)
	default:
		panic(fmt.Sprintf("rtbench: unknown strategy %q", name))
	}
}

// Sample is one cell of the matrix: a scenario run under one strategy.
type Sample struct {
	Scenario    string  `json:"scenario"`
	Strategy    string  `json:"strategy"`
	Ports       int     `json:"ports"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	Iters       int     `json:"iters"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`

	// RMR-proxy counters from the wait engine, normalized per passage:
	// each wake is one remote write to another process's spin word and each
	// sleep the matching remote-read miss, which is what the paper's CC
	// cost model counts; spins and parks are local by construction.
	PublishesPerOp  float64 `json:"publishes_per_op"`
	SleepsPerOp     float64 `json:"sleeps_per_op"`
	WakesPerOp      float64 `json:"wakes_per_op"`
	ParksPerOp      float64 `json:"parks_per_op"`
	SpinRoundsPerOp float64 `json:"spin_rounds_per_op"`

	// Tree runs only: tree height and per-level wake deliveries per
	// passage (index 0 = leaf level) — the hand-off cost profile of the
	// arbitration tree.
	Levels          int       `json:"levels,omitempty"`
	LevelWakesPerOp []float64 `json:"level_wakes_per_op,omitempty"`

	// Keyed runs only: the keyspace size and how many crashes the
	// deterministic crash mix injected during the measured pass. Async
	// and Batch make the keyed pipeline cells self-describing: Async
	// marks LockAsync completion passages, Batch > 1 records the DoBatch
	// group size (ns/op stays per key). Backend records the resolved
	// shard lock shape ("flat", "tree", or "mcs").
	Keys    uint64 `json:"keys,omitempty"`
	Crashes uint64 `json:"crashes,omitempty"`
	Async   bool   `json:"async,omitempty"`
	Batch   int    `json:"batch,omitempty"`
	Backend string `json:"backend,omitempty"`
	// Goroutines, async cells only, is runtime.NumGoroutine() sampled
	// right after the measured pass with the table still open: workers +
	// dispatcher pool + runtime housekeeping. The committed
	// many-stripe baseline pins the shared-executor claim — a 512-stripe
	// arena shows a pool-sized figure, not a stripe-sized one. A
	// point-in-time gauge, so the -compare gate treats it as
	// informational rather than a hard ratio.
	Goroutines int `json:"goroutines,omitempty"`
	// ShedsPerOp records cancelled/expired acquisitions per passage
	// (ShardStats.Aborts + Timeouts as a warm-to-measured delta) — the
	// abort cells' self-description, ~1/AbortEvery by construction.
	ShedsPerOp float64 `json:"sheds_per_op,omitempty"`

	// SysCrash runs only. TimeToFirstGrantNs duplicates NsPerOp under its
	// own name (one round = one op, and the op IS the first grant's
	// latency); FullHealNs is the mean time from restore start until the
	// concurrent orphan sweep has healed every dead tenancy and
	// Orphans()==0; CheckpointNs and CheckpointBytes price the snapshot
	// itself. AllocExempt marks the cell as outside the allocs/op
	// regression gate: a restore round rebuilds whole arenas, so its
	// allocation count measures construction, not a leak — rmebench's
	// -compare honors the flag instead of keying off file names.
	TimeToFirstGrantNs float64 `json:"ttfg_ns,omitempty"`
	FullHealNs         float64 `json:"full_heal_ns,omitempty"`
	CheckpointNs       float64 `json:"checkpoint_ns,omitempty"`
	CheckpointBytes    int     `json:"checkpoint_bytes,omitempty"`
	AllocExempt        bool    `json:"alloc_exempt,omitempty"`

	// Supervised marks a cell measured with the table's supervisor
	// ticking (Scenario.Supervised).
	Supervised bool `json:"supervised,omitempty"`

	// TableStats is the keyed table's full post-run observability
	// snapshot, captured only when CollectStats is set (rmebench's -stats
	// flag) and stripped from the BENCH baselines — it is a point-in-time
	// diagnostic dump, not a gate-comparable number.
	TableStats *rme.TableStats `json:"table_stats,omitempty"`
}

// CollectStats makes Run attach each keyed cell's post-run
// LockTable.Stats snapshot to its Sample (the TableStats field).
// cmd/rmebench sets it for -stats; it is off by default because the
// snapshot is diagnostic output, not part of the regression baseline.
var CollectStats bool

// locker is the common surface of Mutex and TreeMutex the harness drives.
type locker interface {
	Lock(int)
	Unlock(int)
}

// runPassages drives total Lock/Unlock passages split across the ports.
// Multi-port workers model critical- and non-critical-section work with a
// scheduler yield on each side. The yield inside the CS is what makes the
// cell actually contended regardless of GOMAXPROCS: a ~100ns critical
// section that never crosses a scheduler boundary is always already
// unlocked when the next worker runs on a busy host, and the "contended"
// cell silently measures sequential fast paths (observed on a single-core
// host as contended ns/op equal to uncontended and zero wakes). With the
// lock held across a yield, every runnable rival enqueues behind it and
// the cell measures what it claims to: the strategy's handoff machinery.
func runPassages(m locker, ports, total int) {
	forEachWorker(ports, total, func(port, n int) {
		for i := 0; i < n; i++ {
			m.Lock(port)
			if ports > 1 {
				runtime.Gosched() // critical-section work
			}
			m.Unlock(port)
			if ports > 1 {
				runtime.Gosched() // non-critical-section work
			}
		}
	})
}

// RunKeyedPassages drives total keyed Lock/Unlock passages split across
// workers goroutines on tbl, each worker drawing keys from its own
// deterministic stream (zipf-skewed or uniform over keys). With crashing
// true the workers go through LockTable.Do — the reclaim-and-retry
// supervisor — so injected deaths are recovered inline. Exported so
// BenchmarkE16KeyedTable measures the exact workload the BENCH_keyed.json
// gate records.
func RunKeyedPassages(tbl *rme.LockTable, workers, total int, zipfian bool, keys uint64, crashing bool) {
	forEachWorker(workers, total, func(w, n int) {
		nextKey := keyStream(w, zipfian, keys)
		for i := 0; i < n; i++ {
			k := nextKey()
			if crashing {
				tbl.Do(k, runtime.Gosched) // critical-section work inside
			} else {
				tbl.Lock(k)
				runtime.Gosched() // critical-section work
				tbl.Unlock(k)
			}
			runtime.Gosched() // non-critical-section work
		}
	})
}

// keyStream builds worker w's deterministic key stream: zipf-skewed or
// uniform over keys, seeded per worker so runs are reproducible.
func keyStream(w int, zipfian bool, keys uint64) func() uint64 {
	if zipfian {
		z := rand.NewZipf(rand.New(rand.NewSource(int64(w)+1)), 1.2, 1, keys-1)
		return z.Uint64
	}
	r := xrand.New(uint64(w)*0x9e3779b97f4a7c15 + 1)
	return func() uint64 { return r.Uint64() % keys }
}

// RunAbortKeyedPassages drives total passages through the deadline-aware
// entry point: every abortEvery-th passage presents a pre-expired deadline
// and is shed at the door (the deterministic zero-allocation abort path),
// every other passage acquires under a live cancellable context — the full
// cancel plumbing (cancellable lease wait, cancellable queue wait) on the
// grant path — and releases normally. Key streams match RunKeyedPassages,
// so the cells read directly against the blocking ones.
func RunAbortKeyedPassages(tbl *rme.LockTable, workers, total int, zipfian bool, keys, abortEvery uint64) {
	expired, cancelExpired := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancelExpired()
	forEachWorker(workers, total, func(w, n int) {
		live, cancelLive := context.WithCancel(context.Background())
		defer cancelLive()
		nextKey := keyStream(w, zipfian, keys)
		for i := 0; i < n; i++ {
			k := nextKey()
			if abortEvery > 0 && uint64(i)%abortEvery == abortEvery-1 {
				if tbl.LockContext(expired, k) == nil {
					panic("rtbench: pre-expired context was granted")
				}
				continue
			}
			if err := tbl.LockContext(live, k); err != nil {
				panic(fmt.Sprintf("rtbench: live context shed: %v", err))
			}
			runtime.Gosched() // critical-section work
			tbl.Unlock(k)
			runtime.Gosched() // non-critical-section work
		}
	})
}

// RunAsyncKeyedPassages drives total completion-based passages split
// across workers goroutines: each passage submits with LockAsync,
// receives its Grant, does the critical-section work, and releases
// through the grant. Key streams match RunKeyedPassages, so the async
// cells read directly against the blocking ones.
func RunAsyncKeyedPassages(tbl *rme.LockTable, workers, total int, zipfian bool, keys uint64) {
	forEachWorker(workers, total, func(w, n int) {
		nextKey := keyStream(w, zipfian, keys)
		for i := 0; i < n; i++ {
			g := <-tbl.LockAsync(nextKey())
			runtime.Gosched() // critical-section work
			g.Unlock()
			runtime.Gosched() // non-critical-section work
		}
	})
}

// hotStripeKeys returns span distinct keys that all map to tbl's stripe
// 0 — the single-stripe population of the hot-key scenarios.
func hotStripeKeys(tbl *rme.LockTable, span int) []uint64 {
	out := make([]uint64, 0, span)
	for k := uint64(1); len(out) < span; k++ {
		if tbl.ShardIndex(k) == 0 {
			out = append(out, k)
		}
	}
	return out
}

// RunHotKeyedPassages drives total single-stripe passages split across
// workers goroutines, in groups of group keys. With batch false each
// group's keys are locked and released one by one — the "b sequential
// Lock calls" shape whose per-key overhead batching exists to beat; with
// batch true each group is one DoBatch. Everything else is identical:
// empty critical sections (the cells price acquisition overhead, not CS
// work) and one scheduler yield per group, so per-key ns/op between the
// two shapes reads directly as the batch amortization factor.
func RunHotKeyedPassages(tbl *rme.LockTable, workers, total, group int, batch bool, span uint64) {
	keys := hotStripeKeys(tbl, int(span))
	forEachWorker(workers, total, func(w, n int) {
		r := xrand.New(uint64(w)*0x9e3779b97f4a7c15 + 1)
		buf := make([]uint64, group)
		for i := 0; i < n; i += group {
			m := group
			if rem := n - i; rem < m {
				m = rem
			}
			for j := 0; j < m; j++ {
				buf[j] = keys[r.Uint64()%span]
			}
			if batch {
				tbl.DoBatch(buf[:m], nopPerKey)
			} else {
				for _, k := range buf[:m] {
					tbl.Lock(k)
					tbl.Unlock(k)
				}
			}
			runtime.Gosched() // inter-group work
		}
	})
}

// nopPerKey is the batch runner's empty per-key critical section.
func nopPerKey(uint64) {}

// runKeyed dispatches a keyed workload to the runner its scenario shape
// selects; warm-up and measured passes go through the same path.
func runKeyed(tbl *rme.LockTable, sc Scenario, total int, crashing bool) {
	switch {
	case sc.AbortEvery > 0:
		if crashing {
			// The abort runner has no crash-absorbing supervisor either;
			// refuse the combination like the async and hot runners do.
			panic(fmt.Sprintf("rtbench: scenario %s combines AbortEvery with CrashEvery", sc.Name))
		}
		RunAbortKeyedPassages(tbl, sc.Ports(), total, sc.Zipf, sc.Keys, sc.AbortEvery)
	case sc.Async:
		if crashing {
			// The async/hot runners carry no crash-absorbing supervisor;
			// an injected Crash would escape a worker goroutine and abort
			// the process. Refuse the combination instead of aborting
			// confusingly at the first injection.
			panic(fmt.Sprintf("rtbench: scenario %s combines Async with CrashEvery", sc.Name))
		}
		RunAsyncKeyedPassages(tbl, sc.Ports(), total, sc.Zipf, sc.Keys)
	case sc.HotStripe:
		if crashing {
			panic(fmt.Sprintf("rtbench: scenario %s combines HotStripe with CrashEvery", sc.Name))
		}
		group := sc.Batch
		if group <= 1 {
			group = hotGroup
		}
		RunHotKeyedPassages(tbl, sc.Ports(), total, group, sc.Batch > 1, sc.Keys)
	default:
		RunKeyedPassages(tbl, sc.Ports(), total, sc.Zipf, sc.Keys, crashing)
	}
}

// syscrashStripeKeys returns one key per distinct stripe, n of them, drawn
// from the scenario's keyspace — the dead lessees' keys, spread so every
// death lands on its own stripe and recovery parallelism is the arena's.
func syscrashStripeKeys(tbl *rme.LockTable, n int, keys uint64) []uint64 {
	out := make([]uint64, 0, n)
	seen := make(map[int]bool, n)
	for k := uint64(1); len(out) < n && k < keys; k++ {
		if si := tbl.ShardIndex(k); !seen[si] {
			seen[si] = true
			out = append(out, k)
		}
	}
	if len(out) < n {
		panic(fmt.Sprintf("rtbench: keyspace %d spans fewer than %d stripes", keys, n))
	}
	return out
}

// runSysCrashRound is one full system-wide crash and recovery: build the
// arena, park one tenancy per worker inside its critical section, crash
// the whole population (no release ever comes — the goroutines end holding,
// which is exactly what a process death leaves), checkpoint, and restore
// into a fresh incarnation whose orphan sweep runs concurrently with one
// waiting acquirer. Returns the round's latencies and checkpoint size.
func runSysCrashRound(sc Scenario, strategy string) (ttfg, heal, ckpt time.Duration, bytes int) {
	opts := []rme.Option{
		rme.WithWaitStrategy(strategyByName(strategy)),
		rme.WithTableSeed(0x5eed), rme.WithShardBackend(sc.Backend),
	}
	tbl := rme.NewLockTable(sc.Shards, sc.ShardPorts, opts...)
	keys := syscrashStripeKeys(tbl, sc.Ports(), sc.Keys)
	var wg sync.WaitGroup
	for _, k := range keys {
		wg.Add(1)
		go func(k uint64) {
			defer wg.Done()
			tbl.Lock(k) // and die holding: the system-wide crash
		}(k)
	}
	wg.Wait()

	t0 := time.Now()
	image, err := tbl.Checkpoint()
	if err != nil {
		panic(fmt.Sprintf("rtbench: checkpoint: %v", err))
	}
	ckpt = time.Since(t0)
	bytes = len(image)
	tbl.Close()

	// The restored incarnation: every dead tenancy surfaces as an orphan,
	// the sweep runs concurrently, and the prober's acquisition queues
	// behind an adopted dead holder until recovery releases it — the
	// post-crash availability story, timed.
	t1 := time.Now()
	nt, err := rme.RestoreTable(image, rme.WithWaitStrategy(strategyByName(strategy)))
	if err != nil {
		panic(fmt.Sprintf("rtbench: restore: %v", err))
	}
	healed := make(chan struct{})
	go func() {
		nt.Reclaim()
		close(healed)
	}()
	nt.Lock(keys[0])
	ttfg = time.Since(t1)
	nt.Unlock(keys[0])
	<-healed
	heal = time.Since(t1)
	if n := nt.Orphans(); n != 0 {
		panic(fmt.Sprintf("rtbench: %d orphans survived the post-crash sweep", n))
	}
	nt.Close()
	return ttfg, heal, ckpt, bytes
}

// runSysCrashCell measures one syscrash matrix cell: a warm round outside
// the window, then Iters crash/recover rounds. NsPerOp is the mean
// time-to-first-grant, so the regular ns regression gate pins recovery
// latency; allocations per round are construction-dominated and the cell
// is marked AllocExempt.
func runSysCrashCell(sc Scenario, strategy string) Sample {
	runSysCrashRound(sc, strategy) // warm: code paths, park channels

	var ttfg, heal, ckpt time.Duration
	var bytes int
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i := 0; i < sc.Iters; i++ {
		dt, dh, dc, b := runSysCrashRound(sc, strategy)
		ttfg += dt
		heal += dh
		ckpt += dc
		bytes = b
	}
	runtime.ReadMemStats(&ms1)

	total := float64(sc.Iters)
	meanTTFG := float64(ttfg.Nanoseconds()) / total
	return Sample{
		Scenario:    sc.Name,
		Strategy:    strategy,
		Ports:       sc.Ports(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Iters:       sc.Iters,
		NsPerOp:     meanTTFG,
		AllocsPerOp: float64(ms1.Mallocs-ms0.Mallocs) / total,
		BytesPerOp:  float64(ms1.TotalAlloc-ms0.TotalAlloc) / total,
		Keys:        sc.Keys,
		Backend:     sc.Backend.String(),

		TimeToFirstGrantNs: meanTTFG,
		FullHealNs:         float64(heal.Nanoseconds()) / total,
		CheckpointNs:       float64(ckpt.Nanoseconds()) / total,
		CheckpointBytes:    bytes,
		AllocExempt:        true,
	}
}

// forEachWorker splits total passages over workers goroutines (the
// remainder spread one-per-worker), runs body(w, n) on each with its
// share, and waits — the fan-out scaffolding every keyed runner shares.
func forEachWorker(workers, total int, body func(w, n int)) {
	var wg sync.WaitGroup
	per := total / workers
	extra := total % workers
	for w := 0; w < workers; w++ {
		n := per
		if w < extra {
			n++
		}
		if n == 0 {
			continue
		}
		wg.Add(1)
		go func(w, n int) {
			defer wg.Done()
			body(w, n)
		}(w, n)
	}
	wg.Wait()
}

// Run measures one matrix cell: a warm-up pass (which also fills the node
// pools and creates the reusable park channels), then Iters measured
// passages. Allocation numbers come from the runtime's global malloc
// counters, so they include the per-run worker spawns — amortized over the
// passage count, that bias is < 0.01/op at the configured scales.
//
// Flat scenarios wrap the strategy with one global wait.Instrumented;
// tree scenarios instead instrument per level (WithTreeInstrumentation)
// and report the global counters as the sum over levels, so a wake is
// never double-counted. Keyed scenarios read the table's own per-stripe
// collectors (LockTable.Stats) as warm-to-measured deltas: the table
// instruments every shard's strategy itself with the outermost wrap, so
// a caller-side wrap would never see the table's waits. Keyed warm-ups
// always run crash-free (they exist to fill the pools); the crash mix,
// if any, is confined to the measured pass.
func Run(sc Scenario, strategy string) Sample {
	if sc.SysCrash {
		return runSysCrashCell(sc, strategy)
	}
	ports := sc.Ports()
	stats := &wait.Stats{}
	var lk locker
	var tm *rme.TreeMutex
	var tbl *rme.LockTable
	switch {
	case sc.Tree:
		tm = rme.NewTree(ports,
			rme.WithWaitStrategy(strategyByName(strategy)),
			rme.WithTreeInstrumentation(true))
		lk = tm
	case sc.Keyed:
		opts := []rme.Option{
			rme.WithWaitStrategy(strategyByName(strategy)),
			rme.WithTableSeed(0x5eed), rme.WithShardBackend(sc.Backend),
		}
		if sc.DispatcherPool > 0 {
			opts = append(opts, rme.WithDispatcherPool(sc.DispatcherPool))
		}
		if sc.Async {
			// Pre-build every shard's request free list up to the worker
			// count — the per-shard concurrency ceiling, since each worker
			// holds one request in flight. Without this a many-stripe cell
			// trickles first-touch node builds through the whole measured
			// pass (each stripe's free list ratchets up to its historical
			// concurrency high-water mark), which is construction cost, not
			// the steady-state pipeline the async cells price.
			opts = append(opts, rme.WithAsyncPrewarm(ports))
		}
		if sc.Supervised {
			// A sub-millisecond tick so a benchmark-sized run spans
			// hundreds of sweeps.
			opts = append(opts, rme.WithSupervisor(rme.SupervisorConfig{
				Interval: 200 * time.Microsecond,
			}))
		}
		tbl = rme.NewLockTable(sc.Shards, sc.ShardPorts, opts...)
	default:
		st := wait.Instrumented(strategyByName(strategy), stats)
		lk = rme.New(ports, rme.WithWaitStrategy(st))
	}

	warm := sc.Iters / 10
	if warm < 8*ports {
		warm = 8 * ports
	}
	if tbl != nil {
		runKeyed(tbl, sc, warm, false)
	} else {
		runPassages(lk, ports, warm)
	}
	stats.Reset()
	if tm != nil {
		for _, ls := range tm.LevelStats() {
			ls.Reset()
		}
	}
	var keyedBase rme.ShardStats
	if tbl != nil {
		keyedBase = tbl.Stats().Total() // subtract the warm-up's events
	}
	var crashCount atomic.Uint64
	if tbl != nil && sc.CrashEvery > 0 {
		var calls atomic.Uint64
		every := sc.CrashEvery
		tbl.SetCrashFunc(func(port int, point string) bool {
			if xrand.Mix64(calls.Add(1))%every == 0 {
				crashCount.Add(1)
				return true
			}
			return false
		})
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	if tbl != nil {
		runKeyed(tbl, sc, sc.Iters, sc.CrashEvery > 0)
	} else {
		runPassages(lk, ports, sc.Iters)
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&ms1)
	if tbl != nil && sc.CrashEvery > 0 {
		tbl.SetCrashFunc(nil)
		tbl.Reclaim() // leave no orphan behind for the next cell
	}

	total := float64(sc.Iters)
	s := Sample{
		Scenario:    sc.Name,
		Strategy:    strategy,
		Ports:       ports,
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Iters:       sc.Iters,
		NsPerOp:     float64(elapsed.Nanoseconds()) / total,
		AllocsPerOp: float64(ms1.Mallocs-ms0.Mallocs) / total,
		BytesPerOp:  float64(ms1.TotalAlloc-ms0.TotalAlloc) / total,
	}
	if tbl != nil {
		s.Keys = sc.Keys
		s.Crashes = crashCount.Load()
		s.Async = sc.Async
		s.Batch = sc.Batch
		s.Backend = tbl.Backend().String()
		if sc.Async {
			// Sampled before Close so the dispatcher pool is still alive:
			// the figure a 512-stripe arena commits is pool-sized, which is
			// the shared-runtime claim in one number.
			s.Goroutines = runtime.NumGoroutine()
		}
		s.AllocExempt = sc.AllocExempt
		full := tbl.Stats()
		s.Supervised = sc.Supervised
		if CollectStats {
			s.TableStats = &full
		}
		d := full.Total()
		s.ShedsPerOp = float64((d.Aborts+d.Timeouts)-(keyedBase.Aborts+keyedBase.Timeouts)) / total
		stats.Publishes.Store(d.Publishes - keyedBase.Publishes)
		stats.Sleeps.Store(d.Sleeps - keyedBase.Sleeps)
		stats.Wakes.Store(d.Wakes - keyedBase.Wakes)
		stats.Parks.Store(d.Parks - keyedBase.Parks)
		stats.SpinRounds.Store(d.SpinRounds - keyedBase.SpinRounds)
		tbl.Close() // stop the cell's dispatchers before the next cell runs
	}
	if tm != nil {
		s.Levels = tm.Levels()
		for _, ls := range tm.LevelStats() {
			s.LevelWakesPerOp = append(s.LevelWakesPerOp, float64(ls.Wakes.Load())/total)
			stats.Publishes.Add(ls.Publishes.Load())
			stats.Sleeps.Add(ls.Sleeps.Load())
			stats.Wakes.Add(ls.Wakes.Load())
			stats.Parks.Add(ls.Parks.Load())
			stats.SpinRounds.Add(ls.SpinRounds.Load())
		}
	}
	s.PublishesPerOp = float64(stats.Publishes.Load()) / total
	s.SleepsPerOp = float64(stats.Sleeps.Load()) / total
	s.WakesPerOp = float64(stats.Wakes.Load()) / total
	s.ParksPerOp = float64(stats.Parks.Load()) / total
	s.SpinRoundsPerOp = float64(stats.SpinRounds.Load()) / total
	return s
}

// RunScenario measures every strategy cell of one scenario, skipping the
// strategies the scenario marks pathological.
func RunScenario(sc Scenario) []Sample {
	var out []Sample
	for _, name := range StrategyNames() {
		skip := false
		for _, s := range sc.SkipStrategies {
			if s == name {
				skip = true
			}
		}
		// Pure spinning is only meaningful when every waiter can own a
		// core; past that ratio each handoff burns whole spin budgets of
		// the one goroutine that could progress (observed: minutes per
		// benchmark cell on a single-core host).
		if name == "spin" && sc.Ports() > runtime.GOMAXPROCS(0) {
			skip = true
		}
		if skip {
			continue
		}
		out = append(out, Run(sc, name))
	}
	return out
}
