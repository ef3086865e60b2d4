// Package rme is a recoverable mutual-exclusion (RME) library for Go,
// implementing the algorithm of Jayanti, Jayanti and Joshi, "A Recoverable
// Mutex Algorithm with Sub-logarithmic RMR on Both CC and DSM" (PODC 2019).
//
// # What "recoverable" means
//
// A recoverable mutex keeps working when a participant dies mid-operation.
// All lock state lives in stable storage (in this library: ordinary heap
// memory owned by the Mutex, standing in for non-volatile main memory),
// while the participant's own variables are lost with it. A replacement
// participant that calls Lock with the same port recovers exactly where the
// dead one left off:
//
//   - died inside the critical section → Lock returns immediately, still
//     holding the CS, before anyone else can enter (wait-free critical
//     section re-entry);
//   - died while waiting → Lock resumes waiting at the right queue
//     position, repairing the lock's queue first if the death broke it;
//   - died during Unlock → the next Lock finishes the interrupted release
//     and then starts a fresh acquisition.
//
// The algorithm is an MCS-style FIFO queue lock made crash-tolerant: it
// spins only on locally-cached (or partition-local) words, uses only the
// atomic swap primitive, and has a wait-free Unlock.
//
// # Ports
//
// Capacity is expressed in "ports" (the paper's model): a Mutex created
// with New(k) serves k concurrent super-passages. Each acquisition attempt
// — including all its crash/recovery retries — must use one port
// exclusively; two live goroutines must never share a port. Ports are how a
// successor process proves it is the continuation of a dead one.
//
// Three lock shapes are provided: Mutex is the paper's flat k-ported
// algorithm (O(1) RMRs per crash-free passage); TreeMutex is the
// Section 3.3 arbitration tree for n processes (O((1+f)·log n/log log n)
// per super-passage, the paper's headline bound); and MCSMutex is a
// recoverable MCS queue lock that keeps the O(1)-RMR passage while
// bounding crash repair to the dead port's own queue neighborhood. All
// three serve as shard backends for the keyed LockTable (see "Choosing a
// shard backend" below).
//
// # Tuning
//
// Every busy-wait in the lock stack — the Signal object's wait, the
// repair lock's tournament entry — runs on the internal/wait engine and
// is tunable at construction:
//
//   - WithWaitStrategy selects how waiters pass the time: yielding to the
//     Go scheduler between probes (the default), pure spinning with
//     procyield-style backoff (lowest handoff latency when every waiter
//     owns a core), or spin-then-park on a channel for oversubscribed
//     workloads where ports greatly exceed GOMAXPROCS.
//   - WithTreeInstrumentation attaches per-level RMR-proxy counters to a
//     TreeMutex (see TreeMutex.LevelStats), exposing the arbitration
//     tree's hand-off cost profile.
//
// The wait engine's spin words are generation-stamped and reusable (see
// internal/wait): a stale wake aimed at a crashed waiter's abandoned
// episode dies on a generation check instead of landing on a garbage
// allocation. Queue nodes are recycled too: each port keeps a small free
// list of nodes whose successor is done with them, and reuse that cannot
// be proven safe (a queue repair in flight) falls back to allocation.
// Every crash-free passage — contended or uncontended, under any
// strategy — therefore allocates nothing.
//
// # Keyed locking at scale
//
// The port model serves a fixed cast of identities; real services lock
// millions of named resources from whatever goroutine happens to carry the
// request. Two layers bridge the gap:
//
//   - PortLeaser lets arbitrary workers borrow port identities per
//     passage. Each port has an epoch-stamped ownership word: acquisition
//     CASes it free→held with a fresh epoch, so a stale lease cannot
//     revoke a later lessee's port, and a worker that dies mid-protocol
//     leaves the word orphaned (the OrphanOnCrash guard marks it as the
//     Crash panic unwinds). ReclaimOrphans recovers orphaned ports —
//     running the recovery Lock on each, concurrently, since orphans can
//     be queued behind each other's dead nodes — and returns them to the
//     pool.
//   - LockTable is the keyed lock service built from both: uint64 keys
//     (StringKey folds a string to one) hash onto shards, each shard one
//     k-ported recoverable
//     lock (flat, tree, or MCS — see "Choosing a shard backend") plus a
//     lease pool, so an unbounded keyspace shares O(shards·ports) of
//     permanent lock state. Mutual exclusion is per key via striping
//     (same-stripe keys contend, which is coarser but never unsound);
//     Lock/Unlock/Held take the key, Reclaim sweeps crashed tenancies
//     (ReclaimWith reports each dead tenancy's key and whether it held
//     the critical section, the hook for application-level redo/undo).
//     Crash-free keyed passages allocate nothing, on every shard backend,
//     once the flat and tree shards' node free lists are warm (MCS nodes
//     are permanent per-port state and need no warming).
//
// An orphaned tenancy still owns its protocol state — it can hold its
// stripe's critical section or stall the queue behind it — so it must be
// swept promptly, exactly as RME's progress guarantees assume crashed
// processes restart. A table built with WithSupervisor heals each orphan
// from the moment it exists (see "Supervised tables" below, and
// examples/locktable for the pattern under a crash storm); a table
// without it must call Reclaim from its own supervision loop after
// observing a death. Callers with a latency
// budget rather than a liveness obligation should use the abortable tier
// — TryLock and LockContext — described under "Deadlines, TryLock, and
// aborts" below.
//
// # Choosing a shard backend
//
// Each shard's lock is the flat k-ported Mutex, a k-process arbitration
// TreeMutex, or the recoverable MCS queue lock MCSMutex, selected by
// WithShardBackend and fixed for the table's lifetime; every keyed
// contract (striping, recovery, async and batch, zero-allocation warm
// passages) holds identically on all three. The choice is therefore a
// performance trade, plus one progress property:
//
//   - The flat lock is the paper's algorithm: an O(1)-RMR crash-free
//     passage — one queue entry, one handoff — and the only shape whose
//     Exit is wait-free. Its costs grow with the port count k: a queue
//     repair scans all k ports and runs under a repair lock whose
//     tournament is sized k, and every repair of the stripe serializes
//     through that one lock. Each passage also publishes a queue node in
//     a k-wide port table, which costs more than MCS's descriptor section
//     even at k=4 (see AutoBackend below).
//   - The MCS queue lock keeps the O(1)-RMR passage — one CAS on the
//     tail, one local spin, one single-word wake to exactly the
//     successor (0.89 wakes per passage at k=64 on the committed
//     BENCH_keyed_mcs.json, the lowest of the three backends) — and
//     adds O(1) crash repair: recovery inspects only the crashed port's
//     own node and its queue neighborhood, never a k-sized scan. Its
//     cost is the enqueue/empty-release descriptor, a tiny serializing
//     lock whose dead holder stalls every new arrival on the stripe
//     until Reclaim runs, so a crash's blast radius is the whole stripe
//     (see MCSMutex for the full argument). Its Exit is not wait-free: a
//     release can wait on the descriptor, or on the link of a successor
//     that has committed its enqueue but not yet linked.
//   - The tree pays O(log k / log log k) levels per passage (visible as
//     ~4x wakes per passage at k=64 in the committed
//     BENCH_keyed_tree.json), but bounds every repair to one node of
//     Θ(log k / log log k) ports and repairs different nodes in
//     parallel — the paper's Section 3.3 trade, applied per stripe. On
//     the committed high-port baselines its throughput is within a few
//     percent of flat shards under saturation, because a deep queue
//     hides handoff latency; under spin-then-park with heavy
//     oversubscription each extra level's wake is a park/unpark round
//     trip, and the flat lock is clearly better.
//   - AutoBackend (the default) draws one line: MCS up to 256 ports per
//     shard, tree past it (the tree confines a crash to one arity-sized
//     node, where a dead MCS descriptor holder stalls all k ports'
//     arrivals). MCS is the default for small stripes too because it
//     won by measurement: on the repository benchmark's 4-port stripes
//     it matched or beat flat shards on throughput, beat them on acquire
//     latency, and allocates nothing per passage with no free list to
//     warm. Tables that need a wait-free Exit, or the paper's own
//     algorithm, opt in with WithShardBackend(FlatBackend); Backend()
//     reports what was built.
//
// # Asynchronous and batched acquisition
//
// Blocking Lock parks one goroutine per waiting key. At service scale the
// LockTable offers two ways out:
//
//   - LockAsync(key) enqueues and returns a channel; LockAsyncFunc takes
//     a callback. A shared dispatcher runtime — a bounded pool of
//     WithDispatcherPool(n) workers receiving runnable stripes from one
//     buffered channel, and blocked in that receive when there is
//     nothing to deliver — works through each stripe's requests in FIFO
//     order (at most one worker engages a stripe at a time) and completes
//     each with a Grant, so ten thousand in-flight requests cost ten thousand
//     queue nodes, not ten thousand goroutine stacks, and ten thousand
//     stripes cost n dispatcher goroutines, not ten thousand
//     (TableStats.Dispatcher reports the pool's gauges). The
//     grant-ownership rule: exactly one party owns a Grant at a time
//     (the engaged worker, then channel or callback, then receiver), and
//     the owner must settle it exactly once, with Grant.Unlock or
//     Grant.Abandon. A requester that dies before receiving leaves the
//     grant parked in its channel, still holding the stripe — its
//     supervisor drains the channel and abandons the grant, which routes
//     the tenancy into the ordinary orphan/reclaim machinery. A callback
//     that dies with a Crash panic is orphaned in place and the pool
//     survives it; callbacks must settle their grant before returning
//     (only the channel variant may move a grant between goroutines — a
//     hand-off out of a callback would let a later crash in the callback
//     orphan the recipient's live tenancy).
//   - LockBatch / DoBatch acquire many keys at once: keys are sorted by
//     ShardIndex (so concurrent batches cannot ABBA-deadlock) and each
//     same-stripe run is covered by a single tenancy — one lease scan,
//     one queue entry, one handoff wake per stripe instead of per key,
//     which under hot-key traffic amortizes nearly the whole acquisition
//     overhead away. A worker that dies mid-batch orphans exactly the
//     stripes it held; DoBatch packages the sweep-and-retry supervisor
//     around that, running fn exactly once per key.
//
// The self-deadlock rules carry over unchanged, because they are
// properties of striping, not of any entry point: never wait for a grant
// (or call LockBatch) while holding a key of the same table outside the
// documented ascending-ShardIndex discipline, and never block a grant
// callback on another grant of its own stripe — the goroutine it would
// wait for is one of the pool's n, and with a small pool any blocking
// inside a callback eats delivery capacity table-wide (see the
// pool-liveness note in locktable_async.go). Crash-free async and batch
// passages allocate nothing once pools are warm (amortized over the
// batch for DoBatch), as Lock's do; WithDispatcherPool bounds the worker
// pool, and WithAsyncPrewarm warms the request free lists and spawns the
// pool eagerly for first-request allocation budgets.
//
// # Deadlines, TryLock, and aborts
//
// Every blocking keyed entry point has a deadline-aware form: TryLock
// returns immediately with a boolean, LockContext / LockBatchContext /
// LockAsyncContext observe a context's cancellation or deadline. The
// synchronous ones are not separate code paths. Each layer, from the
// wait engine through the backends' LockDone, the lease pool's
// AcquireDone and the table's stripe routine, has one acquisition body
// that takes a cancel channel; the blocking call passes nil, LockContext
// and LockBatchContext pass ctx.Done(), and TryLock passes a closed
// channel after a free-port probe. The design rule that makes abort safe
// in a recoverable lock is abort-as-cooperative-crash: a cancelled waiter
// leaves its protocol state exactly as if it had crashed at its current
// step, then runs the recovery pass itself (a background Lock/Unlock on
// the abandoned port) instead of waiting for a supervisor's Reclaim. The
// caller gets its error immediately; the stripe heals cooperatively; no
// sweep is needed and nothing is stranded. Two invariants hold on every
// backend:
//
//   - No lost wakes. A waiter that cancels races the wake handout; if a
//     wake lands on the departing waiter it is absorbed and forwarded to
//     the next waiter, never dropped, so cancellation can never park an
//     innocent neighbor forever.
//   - Exactly-once settlement. A context that fires after the lock was
//     already won is still honored: LockContext returns nil (the caller
//     owns the key and must Unlock), and a LockAsyncContext grant that
//     loses the delivery race to cancellation is auto-abandoned into the
//     ordinary orphan/reclaim machinery, where a manual Reclaim (or, on a
//     supervised table, the heal the auto-abandon starts) frees it like
//     any other dead tenancy.
//
// A TryLock miss allocates nothing; a hit is an ordinary passage and
// allocates exactly as Lock does: nothing once the node pools are warm.
// TryLock is conservative: it may return false under momentary
// contention (it refuses to queue), but true always means the key is
// held. LockBatchContext is all-or-nothing — a deadline mid-batch
// releases every stripe already acquired, in ShardIndex order, before
// returning the error. Sheds are counted per stripe in ShardStats
// (Timeouts for context.DeadlineExceeded, Aborts for everything else);
// TryLock misses are not sheds and are not counted. The committed
// BENCH_keyed_abort.json baseline pins the tier's costs: both the
// crash-free grant path and the deterministic pre-expired shed stay
// inside the zero-allocation gate on all three backends.
//
// # Supervised tables
//
// Everything above leaves a deployment one standing chore: running a
// reclaim loop so crashed tenancies are swept. WithSupervisor removes it.
// On a supervised table every orphan's recovery starts at its birth:
// whoever orphans a port — a worker dying in Lock, Unlock or a batch, a
// crashing grant callback, Grant.Abandon, or a cancelled-but-granted
// async request — claims it with the same CAS a sweep's claim phase runs
// and starts the same heal on a goroutine of its own, exactly as a
// crashed process in the paper's model recovers by re-running its passage
// as soon as it restarts. A concurrent Reclaim that claims first keeps
// the orphan, so each orphan has exactly one healer from the moment it
// exists, and no heal can wait on an orphan nobody heals. A supervised
// table therefore needs no manual Reclaim calls, for crashes,
// cancellations, or abandoned grants alike, and it runs no background
// loop: nothing polls while nothing is orphaned.
//
// Supervision changes nothing else: every stripe keeps the lock shape
// and port count NewLockTable gave it, and choosing them is the caller's
// job (see "Choosing a shard backend").
//
// Close waits for no heal: a heal queued behind a key Close's caller
// holds finishes once the caller unlocks. SupervisorStats (in
// TableStats, JSON-ready like the rest of the observability surface)
// counts the heals started. The committed BENCH_keyed_supervised.json
// baseline pins the feature's cost claim: a supervised table's crash-free
// passages stay allocation-free.
//
// # System-wide crashes and snapshots
//
// Everything above assumes the paper's independent-failure model: one
// participant dies, its port is orphaned, and some surviving party — a
// supervised heal, a replacement worker, the abort path — runs recovery
// in the same process. A system-wide crash (the model of the
// 2023 successor work on recoverable mutexes under full-system failures)
// breaks that assumption: the whole process dies at once, every lessee
// with it, and nothing survives to call Reclaim. What persists is only
// what lives in stable storage; recovery must be driven by the next
// incarnation, from that image alone.
//
// Checkpoint and RestoreTable are that tier. Checkpoint serializes the
// durable half of a LockTable — the arena shape (stripe count, port
// count, lock shape, seed) and every port's lease word, key, and
// critical-section ownership — into a self-describing, versioned,
// checksummed byte image; in the NVRAM reading, these are the words the
// paper's model keeps in non-volatile memory, while parked waiters,
// async inboxes, and undelivered grants are volatile process state and
// are deliberately not captured (an undelivered Grant's tenancy IS
// captured, as a held lease). The snapshot is crash-consistent
// (per-word atomic) at any moment and exact when the table is quiesced
// or post-mortem. RestoreTable builds a fresh table that adopts the
// image: every fencing epoch is advanced past the old incarnation's (a
// straggler holding pre-crash state can never CAS successfully), every
// non-free lease — orphaned, mid-reclaim, or still Held by a lessee who
// no longer exists — surfaces as an orphan, and a dead holder's
// critical-section ownership is re-established on the fresh backend so
// recovery observes exactly what the crash left. Options passed to
// RestoreTable act as assertions where they would change the arena
// (seed, shard backend): a mismatch with the image is an error, never a
// silent reshape.
//
// The restored table is immediately safe but not immediately available:
// adopted dead holders still own their stripes' critical sections, so
// acquisitions on those stripes queue until the orphan sweep releases
// them. Run Reclaim (or ReclaimWith, to learn which keys were stranded
// and redo/undo application state) before serving traffic, or restore
// with WithSupervisor — RestoreTable then claims every orphan the image
// carried and starts its heal before it returns. The committed BENCH_syscrash.json baselines price this
// path: time-to-first-grant after a full-table crash at 1e5 and 1e6
// keys, with the full-heal time alongside. The crash models and the
// recovery lifecycle are diagrammed in ARCHITECTURE.md; the
// process-boundary proof (an exec'd child restoring from bytes alone)
// is TestSyscrashProcessBoundary.
//
// # Crash injection
//
// Real deployments get crashes from the outside world; tests need them on
// demand. SetCrashFunc installs a hook consulted at every labeled step of
// the algorithm; when it returns true the calling goroutine panics with a
// value recognized by AsCrash, modeling a process that died at exactly that
// instruction. The lock's shared state remains valid; recovery is a new
// Lock call on the same port.
//
// # Verification
//
// This package is a direct port of the step-machine implementation in
// internal/core, which is validated against the paper's own Appendix C
// invariant on randomized and adversarial schedules, reproduces the
// Figure 5 repair walkthrough exactly, and is exercised by the experiment
// suite in EXPERIMENTS.md. The runtime port adds race-detector stress tests
// and crash-injection sweeps of its own.
package rme
