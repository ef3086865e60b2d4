package rme

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/rmelib/rme/internal/wait"
	"github.com/rmelib/rme/internal/xrand"
)

// LockTable is the keyed lock service: it multiplexes an unbounded space
// of named resources (uint64 or string keys) onto a fixed arena of
// recoverable k-ported locks, so millions of keys share O(shards·ports)
// of NVRAM-modeled lock state. Keys hash onto shards; each shard is one
// k-ported lock plus a PortLeaser, so up to ports goroutines per shard
// can be engaged with its lock at once — one holding, the rest queued —
// and any worker goroutine can lock any key without owning a port
// identity for life.
//
// # Striping semantics
//
// Mutual exclusion is provided per key, implemented by striping: keys that
// hash to the same shard share one lock, so locking a key excludes every
// key of its stripe, never fewer than the key itself. The trade is the
// classic one — coarser contention, bounded state. String keys are hashed
// to 64 bits before striping; two strings colliding in all 64 bits would
// alias to one key, which (like striping itself) can only make exclusion
// coarser, never unsound.
//
// Striping also shapes what multi-key locking is allowed. A goroutine
// must never hold one key while locking another key of the same table:
// if the two keys share a stripe it deadlocks against itself (it queues
// behind its own tenancy — no crash, so no sweep can free it), and even
// across stripes, ordering acquisitions by key value does not prevent
// ABBA deadlock because key order does not imply stripe order. Goroutines
// that need several keys at once must order their acquisitions by
// ShardIndex, locking at most one key per stripe (same-stripe keys are
// already mutually excluded by the stripe itself).
//
// # Crash model and recovery
//
// A worker that dies (panics with a Crash) inside Lock or Unlock leaves
// its shard port orphaned: the deferred guard installed around every
// protocol step marks the lease in the dying goroutine, the runtime
// stand-in for the environment noticing a process death. An orphaned port
// still owns its protocol state — it may hold the stripe's critical
// section, or sit mid-queue stalling the keys behind it — so the
// supervisor that catches the Crash panic should run Reclaim promptly.
// Reclaim sweeps every shard, runs the recovery Lock on each orphaned
// port (retrying injected crashes), releases it, and returns the port to
// the pool; progress of the whole stripe depends on it, exactly as RME
// progress depends on crashed processes restarting. On a table built
// WithSupervisor the guard itself starts that recovery, so no caller
// sweeps (see supervisor.go).
//
// # Shard backends
//
// Each shard's lock is one of the library's three recoverable lock
// shapes, selected at construction by WithShardBackend (see
// ShardBackend): the flat k-ported Mutex, the arbitration-tree TreeMutex,
// the recoverable MCS queue lock MCSMutex, or an automatic choice by port
// count. Every keyed contract in this file — striping, orphan recovery,
// zero-allocation warm passages, async and batch acquisition — is
// backend-independent: all shapes satisfy the same portLock surface and
// the same crash-recovery story, and the test suite proves the invariants
// against each. Crash-free passages allocate nothing on any shape: MCS
// nodes are permanent per-port state, and the flat and tree shapes
// recycle their queue nodes through per-port free lists.
//
// A LockTable must be created with NewLockTable. All methods are safe for
// concurrent use; the per-key contract is the usual one (Unlock a key only
// while holding it).
type LockTable struct {
	shards  []lockShard
	seed    uint64
	ports   int
	backend ShardBackend // resolved to a concrete shape, never Auto

	// exec is the shared dispatcher runtime the async tier runs on — a
	// bounded pool of workers multiplexed over every stripe's delivery
	// work (see dispatch.go; WithDispatcherPool sizes it).
	exec executor

	// freeMu guards the recycled Batch free list (request nodes recycle
	// through per-shard lists — see lockShard — so the async hot path
	// never crosses a table-wide lock).
	freeMu    sync.Mutex
	batchFree *Batch
	closed    atomic.Bool

	// noAbortFixup disables the cooperative abort fix-up (test hook): a
	// cancelled waiter's tenancy is parked as an orphan instead of
	// self-repairing, and a cancelled-but-granted async request leaks its
	// grant instead of auto-abandoning — the two hazards the abort design
	// exists to prevent, reproducible on demand by the regression tests.
	noAbortFixup atomic.Bool

	// portsHealed counts the heals supervision started (see supervisor.go);
	// every shard's healed points here when WithSupervisor was given.
	portsHealed atomic.Uint64
}

// portLock is the contract a shard's lock backend satisfies: a k-ported
// recoverable lock whose identities are dense ints 0..Ports()-1, with
// wait-free critical-section re-entry after a crash (LockDone on the dead
// identity's port recovers its passage), a Held probe for
// died-in-critical-section detection, and the labeled crash-injection
// hook. Mutex (ports), TreeMutex (process indices), and MCSMutex (queue
// nodes) all satisfy it; everything above the shard — leases, striping,
// reclaim sweeps, the async and batch pipelines — is written against this
// surface only, so the shapes are interchangeable per arena.
type portLock interface {
	Unlock(port int)
	Held(port int) bool
	Ports() int
	SetCrashFunc(fn CrashFunc)
	// LockDone is the one acquire: it takes the critical section through
	// port, running whatever recovery the port's previous passage owes, and
	// returns true; or, if done closes (a nil done never does), it gives up
	// and returns false with the port left exactly as if its worker had
	// crashed at the abandoned step — so the one recovery story (a
	// LockDone(port, nil)/Unlock pair on the port) also settles aborts.
	// Each backend implements the fix-up it already owns: flat runs its
	// queue repair, tree re-climbs and unwinds under the phase cursor, MCS
	// repairs the O(1) neighborhood of the abandoned node.
	LockDone(port int, done <-chan struct{}) bool
	// freeHint reports whether an arrival at port would currently acquire
	// without queuing — the racy fast-reject probe TryLock uses to keep
	// ordinary misses free of protocol state.
	freeHint(port int) bool
}

var (
	_ portLock = (*Mutex)(nil)
	_ portLock = (*TreeMutex)(nil)
	_ portLock = (*MCSMutex)(nil)
)

// ShardBackend names the lock shape a LockTable's shards are built from;
// see WithShardBackend.
type ShardBackend int

const (
	// AutoBackend (the default) picks by port count: MCSBackend up to
	// autoMCSPortThreshold ports per shard, TreeBackend past it. See the
	// threshold constant for the rationale.
	AutoBackend ShardBackend = iota
	// FlatBackend builds each shard from one flat k-ported Mutex — O(1)
	// RMR crash-free passages, Θ(k) queue repair on recovery. It is the
	// paper-faithful lock and the only shape whose Exit is wait-free: an
	// MCS release can wait on the enqueue descriptor or on a committed
	// successor's link. Opt in with WithShardBackend(FlatBackend).
	FlatBackend
	// TreeBackend builds each shard from a k-process arbitration
	// TreeMutex — O(log k / log log k) RMR passages with every repair
	// confined to one Θ(log k / log log k)-ported node, the paper's
	// Section 3.3 trade for large process counts.
	TreeBackend
	// MCSBackend builds each shard from a recoverable MCS queue lock
	// (MCSMutex) — O(1) RMR local-spin passages like the flat lock, but
	// with crash recovery confined to the O(1) neighborhood of the dead
	// node (predecessor re-link plus successor grant) instead of the flat
	// lock's Θ(k) port-table scan. Arrivals pay one short locked-descriptor
	// section per enqueue; see MCSMutex for the correctness argument.
	MCSBackend
)

// autoMCSPortThreshold is where AutoBackend stops choosing MCS shards.
// Below it MCS wins by measurement, small stripes included: on the
// repository benchmark's 4-port stripes it matched or beat the flat Mutex
// on throughput and beat it on acquire p50 and p99 in every workload, and
// it allocates nothing per passage. Its descriptor section costs less than
// the flat lock's per-passage port-table publication and queue node. Both
// keep the crash-free passage at O(1) RMR; MCS also keeps repair O(1), and
// the flat lock stays available for its wait-free Exit (FlatBackend). But
// a crash inside MCS's enqueue descriptor stalls every arrival of the
// stripe until the orphan is reclaimed, and the blast radius of that
// stall grows with the port count. Past this many ports the tree's
// bounded-blast-radius story wins: each crash is confined to one
// arity-sized node, so the stripe keeps admitting arrivals through its
// other subtrees at the price of O(log k / log log k) levels per passage.
const autoMCSPortThreshold = 256

func (b ShardBackend) String() string {
	switch b {
	case AutoBackend:
		return "auto"
	case FlatBackend:
		return "flat"
	case TreeBackend:
		return "tree"
	case MCSBackend:
		return "mcs"
	}
	return fmt.Sprintf("ShardBackend(%d)", int(b))
}

// resolve maps AutoBackend to the concrete shape for a port count.
func (b ShardBackend) resolve(ports int) ShardBackend {
	if b != AutoBackend {
		return b
	}
	if ports <= autoMCSPortThreshold {
		return MCSBackend
	}
	return TreeBackend
}

// lockShard is one stripe: a k-ported recoverable lock (flat, tree, or
// MCS — see portLock), the lease pool multiplexing workers onto its ports,
// and the key each leased port is currently locking.
type lockShard struct {
	// lk is the stripe's lock, in the table's shape, fixed at
	// construction.
	lk   portLock
	pool *PortLeaser
	// key[p] is the key port p's current tenancy is about: stored between
	// lease acquisition and the port's Lock, read by Held/Unlock scans.
	// Only meaningful while the port's lease is not free.
	key []atomic.Uint64
	// stats collects the stripe's wait-engine events: the table wraps
	// every shard's wait strategy with wait.Instrumented at construction,
	// so Wakes here is the stripe's RMR proxy (see LockTable.Stats).
	stats *wait.Stats
	// acquires counts completed tenancy acquisitions of the stripe —
	// sync, async, and batch — the "ops" denominator of Stats' wakes/op.
	acquires atomic.Uint64
	// aborts / timeouts count acquisitions shed before completion —
	// cancelled contexts and expired deadlines respectively — across every
	// context-aware entry point (LockContext, LockBatchContext,
	// LockAsyncContext). TryLock misses are not counted: a miss abandons
	// nothing, it declines to start.
	aborts   atomic.Uint64
	timeouts atomic.Uint64
	// healed is the table's supervision heal counter, nil on an
	// unsupervised table: non-nil makes whoever orphans one of the
	// stripe's ports start its heal (see healAtBirth).
	healed *atomic.Uint64
	// disp is the stripe's async service state — the request inbox plus
	// the scheduled bit the shared executor admits the stripe by (see
	// locktable_async.go and dispatch.go; the stripe owns no dispatcher
	// goroutine). reqMu/reqFree are its recycled request nodes, per shard
	// so independent stripes' pipelines do not contend on one table-wide
	// free list.
	disp    dispatcher
	reqMu   sync.Mutex
	reqFree *asyncReq
}

// tableSeedClock differentiates the default seeds of successive tables.
var tableSeedClock atomic.Uint64

// NewLockTable creates a keyed lock service striped over shards stripes of
// ports ports each. Options are threaded through to every shard's lock
// (wait strategy); WithShardBackend selects the lock shape each shard is
// built from (flat Mutex, arbitration TreeMutex, MCSMutex, or the
// automatic port-count choice — the default), and WithTableSeed pins the
// key-to-shard mapping for reproducibility.
//
// Sizing: shards bounds how many keys can be held concurrently (one holder
// per stripe), ports bounds how many workers can be queued on one stripe
// before further arrivals wait for a lease. shards × ports is the arena's
// total identity count and the size of its permanent state.
func NewLockTable(shards, ports int, opts ...Option) *LockTable {
	if shards <= 0 {
		panic("rme: NewLockTable needs at least one shard")
	}
	if ports <= 0 {
		panic("rme: NewLockTable needs at least one port per shard")
	}
	cfg := buildConfig(opts)
	seed := cfg.seed
	if !cfg.seedSet {
		seed = xrand.Mix64(tableSeedClock.Add(1) * 0x9e3779b97f4a7c15)
	}
	backend := cfg.backend.resolve(ports)
	t := newTableArena(shards, ports, seed, backend, cfg, opts)
	t.finishInit(cfg)
	return t
}

// newTableArena builds a table's permanent state — the stripes, their
// locks, lease pools, and key registers — without starting any goroutine
// (no heals, no dispatchers). NewLockTable and RestoreTable share it: the
// restore path needs the arena fully built but still inert so it can
// adopt the checkpointed lease words and critical sections
// single-threaded, before finishInit makes the table live.
func newTableArena(shards, ports int, seed uint64, backend ShardBackend, cfg config, opts []Option) *LockTable {
	t := &LockTable{
		shards:  make([]lockShard, shards),
		seed:    seed,
		ports:   ports,
		backend: backend,
	}
	t.exec.init(t, cfg.dispatcherPool())
	for i := range t.shards {
		// Wrap the table's strategy with the stripe's stats collector —
		// the counters LockTable.Stats reports. The wrap is outermost, so
		// a caller-instrumented strategy's own sink is superseded per
		// episode; read the table's Stats instead of wrapping when the
		// table is the thing being measured.
		stats := &wait.Stats{}
		// Append after the caller's options so the instrumented strategy
		// wins over a table-wide WithWaitStrategy.
		shOpts := append(append(make([]Option, 0, len(opts)+1), opts...),
			WithWaitStrategy(wait.Instrumented(cfg.strat, stats)))
		sh := &t.shards[i]
		switch backend {
		case TreeBackend:
			sh.lk = NewTree(ports, shOpts...)
		case MCSBackend:
			sh.lk = NewMCS(ports, shOpts...)
		default:
			sh.lk = New(ports, shOpts...)
		}
		sh.pool = NewPortLeaser(ports, shOpts...)
		sh.key = make([]atomic.Uint64, ports)
		sh.stats = stats
		if cfg.supervised {
			sh.healed = &t.portsHealed
		}
	}
	return t
}

// finishInit makes a built arena live — it starts the heals of a
// supervised restore's orphans (see superviseRestored) and builds the
// async prewarm's request nodes and worker pool — and is the last step of
// both construction paths.
func (t *LockTable) finishInit(cfg config) {
	if cfg.supervised {
		t.superviseRestored()
	}
	if cfg.asyncPrewarm > 0 {
		// Warm every shard: the prewarm promise is per stripe (a request
		// node free list is per shard), so each shard gets the full count;
		// the executor's pool is spawned eagerly so the submit side never
		// pays a worker spawn either — see WithAsyncPrewarm.
		for i := range t.shards {
			sh := &t.shards[i]
			for j := 0; j < cfg.asyncPrewarm; j++ {
				sh.putReq(&asyncReq{ch: make(chan Grant, 1)})
			}
		}
		t.exec.spawnAll()
	}
}

// Shards returns the number of stripes.
func (t *LockTable) Shards() int { return len(t.shards) }

// Ports returns the per-shard port count.
func (t *LockTable) Ports() int { return t.ports }

// Backend returns the lock shape the table's shards were built from:
// FlatBackend, TreeBackend, or MCSBackend (an AutoBackend request is
// resolved at construction and reported as whichever shape it chose).
func (t *LockTable) Backend() ShardBackend { return t.backend }

// ShardStats is one stripe's observability snapshot; see LockTable.Stats.
type ShardStats struct {
	// Acquires counts completed tenancy acquisitions of the stripe —
	// synchronous, asynchronous, and batch — the "ops" denominator.
	Acquires uint64 `json:"acquires"`
	// Publishes / Wakes / Sleeps / Parks / SpinRounds are the stripe's
	// wait-engine event counters (see WaitStats): every blocking wait of
	// the stripe — lock hand-offs, lease waits — reports here. Wakes is
	// the RMR proxy on a CC machine: each wake is one remote write to
	// another goroutine's spin word.
	Publishes  uint64 `json:"publishes"`
	Wakes      uint64 `json:"wakes"`
	Sleeps     uint64 `json:"sleeps"`
	Parks      uint64 `json:"parks"`
	SpinRounds uint64 `json:"spin_rounds"`
	// Aborts / Timeouts count acquisitions shed before completion on the
	// context-aware entry points: Timeouts are sheds whose context died of
	// context.DeadlineExceeded, Aborts every other cancellation. Together
	// they are the stripe's shed-load signal — the thing a deadline-aware
	// service watches to know it is over capacity. TryLock misses count in
	// neither (a miss declines to start; nothing was abandoned).
	Aborts   uint64 `json:"aborts"`
	Timeouts uint64 `json:"timeouts"`
	// Orphans counts ports whose lessee died and whose recovery has not
	// finished (the per-stripe slice of LockTable.Orphans).
	Orphans int `json:"orphans"`
	// InboxDepth is the stripe's pending async backlog: requests
	// submitted whose delivery has not yet acquired its tenancy (or
	// shed). A request leaves the count only once it holds a lease, so
	// InboxDepth and the lease-pool gauges overlap rather than leaving a
	// window — the invariant Quiesced's reasoning rests on.
	InboxDepth int `json:"inbox_depth"`
}

// WakesPerOp returns the stripe's wake count per completed acquisition —
// the per-op RMR proxy Auto's thresholds are judged by. Zero when the
// stripe has completed no acquisitions.
func (s ShardStats) WakesPerOp() float64 {
	if s.Acquires == 0 {
		return 0
	}
	return float64(s.Wakes) / float64(s.Acquires)
}

// TableStats is the table-wide observability snapshot: one ShardStats per
// stripe, in shard order, plus the supervision's counters (all zero on a
// table without WithSupervisor) and the shared dispatcher runtime's pool
// gauges.
type TableStats struct {
	Shards     []ShardStats
	Supervisor SupervisorStats
	Dispatcher DispatcherStats
}

// Total aggregates every stripe's counters into one ShardStats.
func (ts TableStats) Total() ShardStats {
	var sum ShardStats
	for _, s := range ts.Shards {
		sum.Acquires += s.Acquires
		sum.Publishes += s.Publishes
		sum.Wakes += s.Wakes
		sum.Sleeps += s.Sleeps
		sum.Parks += s.Parks
		sum.SpinRounds += s.SpinRounds
		sum.Aborts += s.Aborts
		sum.Timeouts += s.Timeouts
		sum.Orphans += s.Orphans
		sum.InboxDepth += s.InboxDepth
	}
	return sum
}

// Stats returns a racy snapshot of the table's per-stripe observability
// counters: completed acquisitions, wait-engine events (wakes per op is
// the RMR proxy), pending orphans, and async inbox depth. The counters
// are cheap enough to leave always on — wait events are counted only on
// blocking episodes, which crash-free uncontended passages never open —
// so Stats can be polled from a monitoring loop in production.
//
// Because the table instruments every shard's strategy itself (the wrap
// is outermost), wrapping a strategy with your own instrumentation before
// passing it to NewLockTable will not observe the table's waits; poll
// Stats instead.
func (t *LockTable) Stats() TableStats {
	ts := TableStats{Shards: make([]ShardStats, len(t.shards))}
	for i := range t.shards {
		sh := &t.shards[i]
		s := &ts.Shards[i]
		s.Acquires = sh.acquires.Load()
		s.Publishes = sh.stats.Publishes.Load()
		s.Wakes = sh.stats.Wakes.Load()
		s.Sleeps = sh.stats.Sleeps.Load()
		s.Parks = sh.stats.Parks.Load()
		s.SpinRounds = sh.stats.SpinRounds.Load()
		s.Aborts = sh.aborts.Load()
		s.Timeouts = sh.timeouts.Load()
		for p := 0; p < sh.pool.Ports(); p++ {
			switch sh.pool.State(p) {
			case LeaseOrphaned, LeaseReclaiming:
				s.Orphans++
			}
		}
		s.InboxDepth = int(sh.disp.depth.Load())
	}
	ts.Supervisor = t.supervisorStats()
	ts.Dispatcher = t.exec.stats()
	return ts
}

// ShardIndex returns the stripe key maps to, computed as the seeded
// splitmix64 finalizer of key XOR the table's seed, reduced mod Shards().
// The contract this implies, stated here because multi-key code builds on
// it directly:
//
//   - Collisions are deliberate and benign for safety: any two keys with
//     equal ShardIndex share one lock, so colliding keys exclude each
//     other — exclusion can only get coarser, never unsound. But they are
//     load-bearing for liveness: a goroutine that tries to hold two
//     same-stripe keys at once deadlocks against itself (the self-deadlock
//     documented on Do applies to every acquisition path, Lock and
//     LockAsync included, because the hazard is created here, by the
//     hash, not by any particular entry point).
//   - The key-to-stripe map is an arbitrary full-avalanche permutation:
//     nothing about the order of two keys survives into the order of
//     their stripes. Multi-key acquisition ordered by key value therefore
//     does NOT prevent ABBA deadlock; order by ShardIndex (as LockBatch
//     does internally), locking at most one key per stripe.
//   - The map is pure per table: fixed by (seed, Shards()) alone, stable
//     for the table's lifetime, and reproducible across runs only when
//     WithTableSeed pinned the seed.
func (t *LockTable) ShardIndex(key uint64) int {
	return int(xrand.Mix64(key^t.seed) % uint64(len(t.shards)))
}

func (t *LockTable) shardOf(key uint64) *lockShard {
	return &t.shards[t.ShardIndex(key)]
}

// StringKey folds a string to a 64-bit table key (FNV-1a), so every keyed
// entry point takes a string as tbl.Lock(rme.StringKey("accounts/alice")).
// The digest feeds the same seeded shard mixer as native uint64 keys. Two
// consequences worth stating explicitly: a full 64-bit collision between
// two strings aliases them to one key (they then share not just a stripe
// but Held identity — coarser exclusion, never unsound), and the
// same-stripe self-deadlock rule documented on ShardIndex and Do applies
// to string keys through their digests — "different strings" is no
// defense, only different ShardIndex values are.
func StringKey(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Lock acquires the lock for key, waiting while the key's stripe is held
// (for this or any aliased key) and while all of the stripe's ports are
// leased. Crash-free calls allocate nothing once the shard's node pools
// are warm (MCS shards have none to warm).
//
// Do not call Lock while already holding another key of this table unless
// the acquisitions are ordered by ShardIndex with at most one key per
// stripe — a second key of an already-held stripe deadlocks the caller
// against itself (see the striping notes on LockTable).
func (t *LockTable) Lock(key uint64) {
	t.shardOf(key).lock(t, key, nil)
}

// lock is the stripe's one acquisition routine, behind Lock, LockContext,
// async delivery and the batch walk: lease a port, register key on it, and
// run the port's LockDone under the orphan-on-crash guard. A nil done waits
// as long as it takes. If done closes first, lock returns false holding
// nothing: a cancelled lease wait took no port, and a cancelled lock wait
// hands its port to the abort fix-up.
func (sh *lockShard) lock(t *LockTable, key uint64, done <-chan struct{}) (PortLease, bool) {
	l, ok := sh.pool.AcquireDone(done)
	if !ok {
		return l, false
	}
	return l, sh.lockLeased(t, l, key, done)
}

// lockLeased is lock's tail on a port already leased, shared with
// TryLock's probe front: register key, run the port's LockDone under the
// stripe's crash guard, and count the acquire — or, on cancellation,
// retire the tenancy through abortTenancy.
func (sh *lockShard) lockLeased(t *LockTable, l PortLease, key uint64, done <-chan struct{}) bool {
	defer sh.crashGuard(l)
	sh.key[l.Port].Store(key)
	if !sh.lk.LockDone(l.Port, done) {
		sh.abortTenancy(t, l)
		return false
	}
	sh.acquires.Add(1)
	return true
}

func (sh *lockShard) unlockPort(l PortLease) {
	defer sh.crashGuard(l)
	sh.lk.Unlock(l.Port)
}

// crashGuard is the deferred orphan-on-crash handler around a leased
// port's protocol steps: a Crash panic orphans the tenancy as it unwinds
// (see orphan), and every panic continues to the caller. A named method so
// the defer is open-coded: the crash-free keyed passage must not allocate.
func (sh *lockShard) crashGuard(l PortLease) {
	if r := recover(); r != nil {
		if _, ok := AsCrash(r); ok {
			sh.orphan(l)
		}
		panic(r)
	}
}

// closedChan is the pre-closed cancellation channel TryLock hands to
// LockDone: "give up immediately unless the hand-off is already yours".
var closedChan = func() chan struct{} {
	c := make(chan struct{})
	close(c)
	return c
}()

// TryLock acquires key's lock only if it is immediately available: a free
// port on the stripe and no live passage to queue behind. It returns
// whether the lock was acquired; a true return is exactly a Lock(key) and
// must be paired with Unlock(key). Misses touch no protocol state on the
// common paths (no free port, or the stripe's lock visibly busy) and are
// not counted as aborts — a miss declines to start, it abandons nothing.
//
// TryLock is best-effort under contention, as every try-lock is: a stripe
// that frees concurrently with the probe can still miss. In the narrow
// race where the stripe looked free but a passage slipped in before this
// caller's enqueue, the attempt is abandoned through the same cooperative
// fix-up as a cancelled LockContext (the port self-repairs in the
// background); the miss report is unaffected.
func (t *LockTable) TryLock(key uint64) bool {
	sh := t.shardOf(key)
	// TryAcquire, not AcquireDone(closedChan): a miss must not register on
	// the lease pool's waiter chain.
	l, ok := sh.pool.TryAcquire()
	if !ok {
		return false
	}
	if !sh.lk.freeHint(l.Port) {
		sh.pool.Release(l)
		return false
	}
	return sh.lockLeased(t, l, key, closedChan)
}

// LockContext acquires the lock for key like Lock, but gives up when ctx
// is cancelled or its deadline passes, returning ctx's error. A nil return
// always transfers ownership — the caller holds the key and owes an
// Unlock, even if ctx was cancelled concurrently with the grant (the
// hand-off won the race). A non-nil return guarantees the caller holds
// nothing.
//
// A cancelled acquisition never strands its stripe. The departing waiter's
// port is left as if it had crashed at the abandoned step, and the waiter
// itself — not a supervisor — schedules the standard crash repair on it
// (the cooperative-abort model of Jayanti–Jayanti's abortable mutex line):
// the stripe's queue is fixed up in the background and the port returns to
// the lease pool without any Reclaim call. Sheds are counted per stripe in
// ShardStats.Aborts/Timeouts. A context that cannot be cancelled (no
// deadline, no cancel) has a nil Done channel and runs Lock's path
// exactly; abort-free passages allocate nothing once the shard's pools are
// warm, as with Lock.
func (t *LockTable) LockContext(ctx context.Context, key uint64) error {
	sh := t.shardOf(key)
	if err := ctx.Err(); err != nil {
		sh.noteShed(err)
		return err
	}
	if _, ok := sh.lock(t, key, ctx.Done()); !ok {
		return sh.shed(ctx)
	}
	return nil
}

// shed records a cancelled acquisition on the stripe and returns the error
// the caller reports (ctx's, defensively defaulting to Canceled).
func (sh *lockShard) shed(ctx context.Context) error {
	err := ctx.Err()
	if err == nil {
		err = context.Canceled
	}
	sh.noteShed(err)
	return err
}

// noteShed classifies one shed: deadline expiries and everything else.
func (sh *lockShard) noteShed(err error) {
	if err == context.DeadlineExceeded {
		sh.timeouts.Add(1)
	} else {
		sh.aborts.Add(1)
	}
}

// abortTenancy retires a tenancy whose acquisition was abandoned mid-wait
// (a cancelled LockDone): the port's protocol state is exactly a crash at
// the abandoned step, and the departing caller — not a reclaim sweep — owns
// the repair. The lease moves held→reclaiming directly, never through
// orphaned, so no concurrent sweep can claim it; the fix-up goroutine then
// runs the standard recovery (Lock resumes and finishes the abandoned
// passage, Unlock releases it, injected crashes retried throughout) and
// returns the port to the pool. This is the cooperative-crash model of the
// abortable-RME constructions: abort reuses the crash-repair machinery each
// backend already has, from the aborting process's own hands.
func (sh *lockShard) abortTenancy(t *LockTable, l PortLease) {
	if !sh.pool.transition(l, leaseHeld, leaseReclaiming) {
		panic(fmt.Sprintf("rme: abort of stale lease (port %d)", l.Port))
	}
	if t.noAbortFixup.Load() {
		// Hazard mode (test hook): park the abandoned passage as an
		// orphan instead of repairing it. Until a manual Reclaim runs, the
		// abandoned node stalls every later arrival of the stripe — the
		// stranded-stripe hazard the cooperative fix-up exists to prevent.
		if !sh.pool.transition(l, leaseReclaiming, leaseOrphaned) {
			panic(fmt.Sprintf("rme: aborted lease moved under hazard parking (port %d)", l.Port))
		}
		return
	}
	// A sweep's heal, minus the ReclaimWith report: an abort is no death.
	go shardClaim{sh: sh, l: l}.heal()
}

// recoverPort runs port's recovery to completion, absorbing injected
// crashes: Lock recovers whatever the dead tenancy left (CS re-entry,
// queue repair, exit completion), Unlock releases; a crash during Unlock
// is in turn recovered by the next Lock. Reclaim sweeps, supervised heals
// and abort fix-ups all run it on a claimed (reclaiming) lease.
func (sh *lockShard) recoverPort(port int) {
	for {
		if crashes(func() { sh.lk.LockDone(port, nil) }) {
			continue
		}
		if !crashes(func() { sh.lk.Unlock(port) }) {
			return
		}
	}
}

// holderOf locates the caller's tenancy: the port whose lease is held,
// whose registered key matches, and which owns the stripe's critical
// section. Under the Unlock contract (the caller holds key's lock) exactly
// the caller's port satisfies all three — other ports with the same
// registered key are queued waiters, and no other port can be in the CS.
func (sh *lockShard) holderOf(key uint64) (PortLease, bool) {
	for p := range sh.key {
		if sh.key[p].Load() != key {
			continue
		}
		w := sh.pool.words[p].Load()
		if w&leaseStateMask != leaseHeld {
			continue
		}
		if sh.lk.Held(p) {
			return PortLease{Port: p, epoch: w >> leaseEpochShift}, true
		}
	}
	return PortLease{}, false
}

// Unlock releases the lock for key. It panics if the calling goroutine's
// tenancy cannot be found — key is not held, or is held by a tenancy that
// crashed (an orphan is released by Reclaim, not Unlock).
func (t *LockTable) Unlock(key uint64) {
	sh := t.shardOf(key)
	l, ok := sh.holderOf(key)
	if !ok {
		panic(fmt.Sprintf("rme: Unlock of key %#x which is not held", key))
	}
	sh.unlockPort(l)
	sh.pool.Release(l)
}

// Held reports whether key's lock is currently held for key itself —
// including by an orphaned tenancy whose holder died inside the critical
// section (recovery harnesses ask exactly that). A stripe held for a
// different key of the same stripe reports false. The answer is a racy
// snapshot, meaningful to the caller only under external ordering (e.g.
// the caller itself holds the key, or the system is quiesced).
func (t *LockTable) Held(key uint64) bool {
	sh := t.shardOf(key)
	for p := range sh.key {
		if sh.key[p].Load() != key {
			continue
		}
		if sh.pool.words[p].Load()&leaseStateMask == leaseFree {
			continue
		}
		if sh.lk.Held(p) {
			return true
		}
	}
	return false
}

// Orphans counts ports whose lessee died and whose recovery has not
// finished (orphaned or mid-reclaim), across all shards. Zero means no
// sweep work is pending.
func (t *LockTable) Orphans() int {
	n := 0
	for i := range t.shards {
		pool := t.shards[i].pool
		for p := 0; p < pool.Ports(); p++ {
			switch pool.State(p) {
			case LeaseOrphaned, LeaseReclaiming:
				n++
			}
		}
	}
	return n
}

// InUse counts tenancies across all shards — ports held, orphaned, or
// mid-reclaim — the table-level form of PortLeaser.InUse, with the same
// racy-snapshot caveat. A batch contributes one tenancy per distinct
// stripe it holds.
func (t *LockTable) InUse() int {
	n := 0
	for i := range t.shards {
		n += t.shards[i].pool.InUse()
	}
	return n
}

// Quiesced reports whether the table has no work in flight: every port of
// every shard free — no live tenancies, no orphans awaiting recovery —
// and no async request pending anywhere in the shared dispatcher
// runtime. The pending half is load-bearing and covers the whole async
// pipeline, not just unread inboxes: a request counts as pending from
// its submission until its delivery holds a lease, so a stripe sitting
// on the executor's run queue, or a batch a worker has swapped but not
// yet delivered (queued behind an earlier request of the same batch,
// holding nothing), keeps the table non-quiescent — the two regressions
// that motivated the check (TestSupervisorQuiescedInboxDepth and
// TestDispatchQuiescedPendingDelivery), and the condition Checkpoint's
// quiescent snapshots rely on.
//
// Like all inspection methods it is a racy snapshot; it is exact once
// submitters have stopped. That exactness needs the reads ordered
// pending-then-InUse: a request's pending count is released only after
// its lease is acquired, so reading all depths as zero first proves
// every accepted request has reached a lease, and a zero InUse
// afterwards proves those leases have since settled. The reverse order
// would let an in-flight delivery slip between the two reads.
func (t *LockTable) Quiesced() bool {
	for i := range t.shards {
		if t.shards[i].disp.depth.Load() != 0 {
			return false
		}
	}
	return t.InUse() == 0
}

// Reclaim is ReclaimWith(nil).
func (t *LockTable) Reclaim() int { return t.ReclaimWith(nil) }

// ReclaimWith sweeps every shard for orphaned ports and recovers each:
// the recovery Lock is run on the port (wait-free re-entry if the dead
// worker held the critical section, queue repair or exit completion
// otherwise), the lock is released, and the port returns to the lease
// pool. Injected crashes during the recovery itself are retried until the
// port is clean. It returns the number of ports reclaimed.
//
// The sweep claims every shard's orphans before recovering any, then runs
// all recoveries in parallel, one goroutine each. Both halves of that
// discipline are load-bearing: orphans can be queued behind each other's
// dead nodes within a stripe (so serial recovery can deadlock), and a
// batch tenancy dies holding several stripes whose recoveries depend on
// each other through live waiters' hold-and-wait chains (so a sweep that
// finished one shard before claiming the next could block forever on a
// stripe whose drain needs a later shard's orphan recovered first).
//
// While its recoveries run, the sweep keeps claiming: every
// reclaimRescan it claims (again all shards first) the orphans that
// appeared after its last claim pass and recovers them too, and it
// returns only when every port it claimed is recovered. A claimed recovery
// can be queued behind such a late orphan — a grant abandoned, or a
// worker killed, after the claim — and nothing else may be sweeping: a
// sweep that only waited for its first claims would then block forever,
// and with it every caller that sweeps synchronously. The count returned
// includes the late claims.
//
// If fn is non-nil it is called for each orphan before its recovery runs,
// with the key the dead tenancy was locking (a batch tenancy reports its
// stripe's representative key) and whether the death was inside the
// critical section — the hook for application-level redo/undo of the
// resource the key names. Calls are made on the sweep's concurrent
// recovery goroutines: fn must be safe for concurrent use and must not
// panic — a panic there escapes on a goroutine the caller cannot recover
// from and aborts the process with the port still mid-reclaim.
//
// Run a sweep whenever a worker death is observed — e.g. from the
// supervisor that caught the Crash panic. An unreclaimed orphan can stall
// every key of its stripe.
func (t *LockTable) ReclaimWith(fn func(key uint64, inCS bool)) int {
	claim := func(dst []shardClaim) []shardClaim { return t.claimOrphans(dst, fn) }
	return reclaimSweep(claim, shardClaim.heal)
}

// shardClaim is one port a sweep claimed: its stripe, its lease, and the
// sweep's ReclaimWith callback (nil for none). Carrying the callback in
// the claim keeps heal a plain method, so the sweep allocates no closure
// for it.
type shardClaim struct {
	sh *lockShard
	l  PortLease
	fn func(key uint64, inCS bool)
}

// heal reports the claim to the sweep's callback, runs the port's
// recovery, and returns the port to the pool.
func (c shardClaim) heal() {
	sh, port := c.sh, c.l.Port
	if c.fn != nil {
		c.fn(sh.key[port].Load(), sh.lk.Held(port))
	}
	sh.recoverPort(port)
	sh.pool.finishReclaim(c.l)
}

// claimOrphans is a sweep's claim phase over every shard: each orphan
// whose orphaned→reclaiming CAS this caller wins is appended to dst,
// carrying fn. The caller owes each claim its heal.
func (t *LockTable) claimOrphans(dst []shardClaim, fn func(key uint64, inCS bool)) []shardClaim {
	var scratch []PortLease
	for i := range t.shards {
		sh := &t.shards[i]
		scratch = sh.pool.claimOrphans(scratch[:0])
		for _, l := range scratch {
			dst = append(dst, shardClaim{sh: sh, l: l, fn: fn})
		}
	}
	return dst
}

// Do runs fn while holding key's lock, surviving worker deaths in the
// lock protocol itself: a Crash panic out of the acquisition is absorbed,
// the orphaned tenancy reclaimed, and the acquisition retried; a Crash
// out of the release is absorbed and the reclaim sweep completes the
// release. Either way fn has run exactly once by the time Do returns —
// the packaged form of the supervisor pattern the tests and benchmarks
// drive (see examples/locktable for building the same loop by hand around
// ReclaimWith when application-level redo/undo is needed).
//
// fn must return normally: Do deliberately does not guard it, because a
// death inside the critical section is an application-recovery problem
// (the resource may be torn) that blanket retry would paper over — model
// that with the lower-level API and ReclaimWith instead.
//
// fn runs while holding key's stripe, so the striping rules apply inside
// it: nesting Do (or Lock) on a key of the same stripe self-deadlocks,
// while nesting on distinct stripes is safe only when every goroutine
// nests in ascending ShardIndex order. fn may call Reclaim — the sweep
// claims only orphaned ports, never fn's live tenancy — provided no
// orphan can be queued on fn's own stripe while the sweep runs (it also
// claims orphans that appear mid-sweep): the sweep waits for each
// orphan's recovery Lock to finish, and a recovery queued behind fn's
// held stripe cannot finish until fn returns. Sweep other stripes' deaths
// from inside; sweep your own stripe's only from outside the lock.
func (t *LockTable) Do(key uint64, fn func()) {
	for crashes(func() { t.Lock(key) }) {
		t.Reclaim()
	}
	fn()
	if crashes(func() { t.Unlock(key) }) {
		t.Reclaim()
	}
}

// SetCrashFunc installs (or, with nil, removes) the crash-injection hook
// on every shard's lock. The hook's port argument is the shard-local
// port.
func (t *LockTable) SetCrashFunc(fn CrashFunc) {
	for i := range t.shards {
		t.shards[i].lk.SetCrashFunc(fn)
	}
}

// crashes runs f and reports whether it panicked with an injected Crash
// (which is swallowed); any other panic propagates.
func crashes(f func()) (crashed bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := AsCrash(r); !ok {
				panic(r)
			}
			crashed = true
		}
	}()
	f()
	return false
}
