package rme

import "context"

// This file is the batched half of the keyed lock service: multi-key
// acquisition that coalesces same-stripe keys under one tenancy.
//
// Striping makes batching structurally cheap: keys of one stripe are
// mutually excluded by the stripe itself, so a run of them needs exactly
// one lease-acquire scan, one queue entry, and one handoff wake — not one
// of each per key. LockBatch sorts the keys by ShardIndex, walks the
// stripe runs in ascending order (the table's canonical multi-key order,
// so concurrent batches cannot ABBA-deadlock each other), and acquires
// one tenancy per distinct stripe. For b same-stripe keys that amortizes
// the entire per-acquisition overhead b-fold, which is the point: under
// hot-key traffic the per-key cost of a batch approaches the cost of the
// critical-section work alone.
//
// Crash semantics follow the lease layer's: a worker that dies mid-batch
// orphans exactly the stripes it holds at that moment — every stripe
// whose lease was acquired, including the one whose Lock was interrupted,
// and none it had not reached yet. The sweep then recovers each orphan
// independently, exactly as it would for the same deaths spread over
// single-key passages.

// Batch is a held multi-key acquisition, returned by LockBatch with every
// requested key's stripe locked. The holder releases everything with
// Unlock. Batches are recycled through the table; after Unlock the Batch
// must not be used again.
type Batch struct {
	t *LockTable
	// keys is the batch's key set, sorted by (ShardIndex, key); shard is
	// the parallel stripe index per key. Both are reused scratch.
	keys  []uint64
	shard []int
	// stripes records one entry per distinct stripe, in ascending stripe
	// order: the stripe and its acquired lease.
	stripes []batchStripe
	// released counts fully-released stripes during Unlock, so a crash
	// mid-release can orphan exactly the stripes still held.
	released int
	next     *Batch // table free-list link
}

type batchStripe struct {
	sh *lockShard
	l  PortLease
}

// Len returns the number of keys the batch holds (counting duplicates as
// submitted).
func (b *Batch) Len() int { return len(b.keys) }

// Keys returns the held keys, sorted by (ShardIndex, key) — the order fn
// sees in DoBatch. The slice is the batch's own scratch: read it, don't
// keep it past Unlock.
func (b *Batch) Keys() []uint64 { return b.keys }

// LockBatch acquires the locks for all keys and returns the held Batch.
// Keys are acquired one tenancy per distinct stripe in ascending
// ShardIndex order, so same-stripe runs cost a single lease and handoff
// and concurrent batches order their stripes identically (no ABBA).
// Duplicate keys are allowed and cost nothing beyond their slot.
//
// The caller must hold no key of this table when calling LockBatch (a
// held stripe would break the ascending-order argument, and a held key
// of any batched stripe self-deadlocks). The keys slice is read
// synchronously and not retained.
//
// Each stripe's tenancy registers the run's first key (in the batch's
// sorted order) as its key: Held answers true for those representative
// keys, false for the rest of the batch, and ReclaimWith reports the
// representative if the batch dies — the per-tenancy-key contract striping
// already has, applied to a tenancy that covers a run. Release a batch
// only through Batch.Unlock, never key-by-key through LockTable.Unlock.
//
// If the calling goroutine dies mid-batch (a Crash panic out of the lock
// protocol), every stripe acquired so far — and only those — is orphaned
// as the panic unwinds, surfacing via Orphans() for the supervisor's
// sweep; DoBatch packages the sweep-and-retry loop. Crash-free batches
// allocate nothing once the table's batch free list and node pools are
// warm, amortized over the batch.
func (t *LockTable) LockBatch(keys []uint64) *Batch {
	t.checkBatch(len(keys))
	b := t.getBatch()
	b.keys = append(b.keys[:0], keys...)
	return t.lockPrepared(b)
}

// LockBatchContext is LockBatch with a cancellation budget: all-or-nothing.
// It returns the held Batch, or ctx's error with nothing held — if ctx is
// cancelled or expires mid-walk, every stripe already acquired is released
// (in the same ascending ShardIndex order a crash-free Unlock uses) and the
// stripe whose acquisition was interrupted repairs itself through the
// cooperative abort fix-up, exactly as in LockContext. One shed is counted,
// on the stripe where the walk gave up. A nil error always transfers the
// whole batch, even if ctx was cancelled concurrently with the final grant.
func (t *LockTable) LockBatchContext(ctx context.Context, keys []uint64) (*Batch, error) {
	t.checkBatch(len(keys))
	if err := ctx.Err(); err != nil {
		t.shardOf(keys[0]).noteShed(err)
		return nil, err
	}
	done := ctx.Done()
	if done == nil {
		return t.LockBatch(keys), nil
	}
	b := t.getBatch()
	b.keys = append(b.keys[:0], keys...)
	b.prepare()
	shedSh := b.lockAllDone(done)
	if shedSh == nil {
		return b, nil
	}
	err := ctx.Err()
	if err == nil {
		err = context.Canceled
	}
	shedSh.noteShed(err)
	b.Unlock() // releases the stripes acquired before the shed, recycles b
	return nil, err
}

func (t *LockTable) checkBatch(n int) {
	if t.closed.Load() {
		panic("rme: batch acquisition on a closed LockTable")
	}
	if n == 0 {
		panic("rme: LockBatch of no keys")
	}
}

// lockPrepared finishes an acquisition whose keys are already staged in
// b.keys: stripe mapping, (stripe, key) sort, and the guarded walk.
func (t *LockTable) lockPrepared(b *Batch) *Batch {
	b.prepare()
	b.lockAll()
	return b
}

// prepare maps staged keys to stripes, sorts, and resets the walk state.
func (b *Batch) prepare() {
	if cap(b.shard) < len(b.keys) {
		b.shard = make([]int, len(b.keys))
	}
	b.shard = b.shard[:len(b.keys)]
	for i, k := range b.keys {
		b.shard[i] = b.t.ShardIndex(k)
	}
	b.sortByStripe()
	b.stripes = b.stripes[:0]
	b.released = 0
}

// lockAll acquires one tenancy per stripe run, under a guard that orphans
// every held stripe if the worker dies mid-batch.
func (b *Batch) lockAll() {
	defer b.orphanHeldOnCrash()
	i := 0
	for i < len(b.keys) {
		j := i + 1
		for j < len(b.keys) && b.shard[j] == b.shard[i] {
			j++
		}
		sh := &b.t.shards[b.shard[i]]
		l := sh.pool.Acquire()
		// Register the run's first key as the tenancy's key: Held and
		// ReclaimWith report a stripe-representative key for batch
		// tenancies, the same way a striped Lock reports the key it was
		// called with rather than every key it excludes.
		sh.key[l.Port].Store(b.keys[i])
		// Record before locking: a crash inside Lock must find this
		// stripe in the held set.
		b.stripes = append(b.stripes, batchStripe{sh: sh, l: l})
		sh.lk.Lock(l.Port)
		sh.acquires.Add(1)
		i = j
	}
}

// lockAllDone is lockAll with a cancellation channel. It returns nil once
// every stripe run is held, or the stripe on which the walk gave up (for
// the caller's shed accounting) with that stripe's tenancy already handed
// to the abort fix-up and removed from the held set; the caller owns
// releasing the stripes acquired before it. The crash guard covers the
// walk the same as lockAll's.
func (b *Batch) lockAllDone(done <-chan struct{}) *lockShard {
	defer b.orphanHeldOnCrash()
	i := 0
	for i < len(b.keys) {
		j := i + 1
		for j < len(b.keys) && b.shard[j] == b.shard[i] {
			j++
		}
		sh := &b.t.shards[b.shard[i]]
		l, ok := sh.pool.AcquireDone(done)
		if !ok {
			return sh
		}
		sh.key[l.Port].Store(b.keys[i])
		b.stripes = append(b.stripes, batchStripe{sh: sh, l: l})
		if !sh.lk.LockDone(l.Port, done) {
			// The aborted stripe repairs itself; drop it from the held set
			// so neither the crash guard nor the caller's unwind touches
			// its (now reclaiming) lease.
			sh.abortTenancy(b.t, l)
			b.stripes = b.stripes[:len(b.stripes)-1]
			return sh
		}
		sh.acquires.Add(1)
		i = j
	}
	return nil
}

// orphanHeldOnCrash is lockAll's deferred crash guard: a Crash panic
// orphans exactly the stripes acquired so far (the batch-wide analogue of
// the per-passage OrphanOnCrash guard), recycles the batch — the caller
// will never see it — and lets the panic continue to the supervisor.
func (b *Batch) orphanHeldOnCrash() {
	r := recover()
	if r == nil {
		return
	}
	if _, ok := AsCrash(r); ok {
		for i := range b.stripes {
			b.stripes[i].sh.pool.Orphan(b.stripes[i].l)
		}
		b.t.putBatch(b)
	}
	panic(r)
}

// Unlock releases every stripe of the batch and recycles it. If the
// calling goroutine dies inside a release, the interrupted stripe and
// every not-yet-released one are orphaned as the panic unwinds (their
// tenancies died holding the CS), and the supervisor's sweep completes
// the releases.
func (b *Batch) Unlock() {
	defer b.orphanUnreleasedOnCrash()
	for i := range b.stripes {
		st := &b.stripes[i]
		st.sh.lk.Unlock(st.l.Port)
		st.sh.pool.Release(st.l)
		b.released = i + 1
	}
	b.t.putBatch(b)
}

// orphanUnreleasedOnCrash is Unlock's crash guard: stripes at and past
// the release cursor still hold their tenancies and are orphaned for the
// sweep.
func (b *Batch) orphanUnreleasedOnCrash() {
	r := recover()
	if r == nil {
		return
	}
	if _, ok := AsCrash(r); ok {
		for i := b.released; i < len(b.stripes); i++ {
			b.stripes[i].sh.pool.Orphan(b.stripes[i].l)
		}
		b.t.putBatch(b)
	}
	panic(r)
}

// DoBatch runs fn once per key while the whole batch is held, surviving
// worker deaths in the lock protocol exactly as Do does for one key: a
// Crash out of the batch acquisition orphans the held stripes, which are
// reclaimed before the acquisition is retried; a Crash out of the release
// is absorbed and the reclaim sweep completes it. Either way fn has run
// exactly once per key by the time DoBatch returns.
//
// fn sees the keys in the batch's (ShardIndex, key) order, duplicates
// included, and must return normally (see Do for why deaths inside the
// critical section are deliberately not absorbed). An empty keys slice is
// a no-op. The self-deadlock and ordering rules of LockBatch apply.
func (t *LockTable) DoBatch(keys []uint64, fn func(key uint64)) {
	if len(keys) == 0 {
		return
	}
	var b *Batch
	for crashes(func() { b = t.LockBatch(keys) }) {
		t.Reclaim()
	}
	for _, k := range b.keys {
		fn(k)
	}
	if crashes(b.Unlock) {
		t.Reclaim()
	}
}

// sortByStripe orders the (keys, shard) pairs by (shard, key): insertion
// sort for the small batches the API is built for, a heapsort past that
// so a degenerate huge batch stays O(n log n) — both in place, neither
// allocating.
func (b *Batch) sortByStripe() {
	if len(b.keys) <= 32 {
		for i := 1; i < len(b.keys); i++ {
			k, s := b.keys[i], b.shard[i]
			j := i - 1
			for j >= 0 && (b.shard[j] > s || (b.shard[j] == s && b.keys[j] > k)) {
				b.keys[j+1], b.shard[j+1] = b.keys[j], b.shard[j]
				j--
			}
			b.keys[j+1], b.shard[j+1] = k, s
		}
		return
	}
	n := len(b.keys)
	for i := n/2 - 1; i >= 0; i-- {
		b.siftDown(i, n)
	}
	for i := n - 1; i > 0; i-- {
		b.swap(0, i)
		b.siftDown(0, i)
	}
}

func (b *Batch) less(i, j int) bool {
	return b.shard[i] < b.shard[j] || (b.shard[i] == b.shard[j] && b.keys[i] < b.keys[j])
}

func (b *Batch) swap(i, j int) {
	b.keys[i], b.keys[j] = b.keys[j], b.keys[i]
	b.shard[i], b.shard[j] = b.shard[j], b.shard[i]
}

func (b *Batch) siftDown(root, hi int) {
	for {
		child := 2*root + 1
		if child >= hi {
			return
		}
		if child+1 < hi && b.less(child, child+1) {
			child++
		}
		if !b.less(root, child) {
			return
		}
		b.swap(root, child)
		root = child
	}
}

// getBatch pops a recycled Batch or builds a fresh one.
func (t *LockTable) getBatch() *Batch {
	t.freeMu.Lock()
	b := t.batchFree
	if b != nil {
		t.batchFree = b.next
		b.next = nil
	}
	t.freeMu.Unlock()
	if b == nil {
		b = &Batch{t: t}
	}
	return b
}

// putBatch recycles a released Batch.
func (t *LockTable) putBatch(b *Batch) {
	t.freeMu.Lock()
	b.next = t.batchFree
	t.batchFree = b
	t.freeMu.Unlock()
}
