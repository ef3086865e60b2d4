package main

import (
	"math/rand"

	"github.com/rmelib/rme"
)

// tableSeed pins the key-to-stripe map. It is fixed rather than drawn from
// the run seed so every seed sees the same hot-stripe layout; the seed
// varies the key streams and the crash schedule.
const tableSeed = 0x5eed_0f_a11_5eed

// ringLen is the length of each client's pre-generated op ring, replayed
// cyclically for the whole window (a power of two).
const ringLen = 1 << 14

type opKind uint8

const (
	opLock opKind = iota
	opLockContext
	opTryLock
	opBatch
)

// op is one passage of a client's stream: its keys, their stripes (s2 is
// -1 unless the op is a batch whose second key is on another stripe), the
// entry point it takes (the crash workload only locks), and whether the
// crash workload arms a crash on it.
type op struct {
	k1, k2 uint64
	s1, s2 int32
	kind   opKind
	arm    bool
}

// workload is one benchmark shape: arena, fixed CPU work inside and
// outside the critical section (iterations of a xorshift step), and the
// key stream. BENCHMARK.json says why each exists.
type workload struct {
	name          string
	shards, ports int
	cs, think     int
	// crashEvery, if set, makes the workload the crash loop: Lock/Unlock
	// with one passage in crashEvery armed for an injected crash. Otherwise
	// it runs the sync mix: 70% Lock, 10% LockContext, 10% TryLock with a
	// Lock fallback, 10% two-key LockBatch.
	crashEvery int
	// keys returns one client's key generator. All clients of a run share
	// seed; r is the client's own stream.
	keys func(tbl *rme.LockTable, seed uint64, r *rand.Rand) func() uint64
}

var workloads = []*workload{
	{name: "spread", shards: 1 << 14, ports: 4, cs: 100, think: 100, keys: uniformKeys(1 << 24)},
	// The hot stripe's critical section outlasts the think pause, so the
	// stripe stays saturated: an unsaturated hot shape swings far more
	// between runs.
	{name: "hotspot", shards: 32, ports: 4, cs: 1000, think: 200, keys: hotKeys(64)},
	{name: "crash", shards: 32, ports: 4, cs: 100, think: 100, crashEvery: 2000, keys: zipfKeys(1 << 20)},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

func uniformKeys(n uint64) func(*rme.LockTable, uint64, *rand.Rand) func() uint64 {
	return func(_ *rme.LockTable, _ uint64, r *rand.Rand) func() uint64 {
		return func() uint64 { return r.Uint64() & (n - 1) }
	}
}

// hotKeys draws a population of n keys that all map to one stripe (the
// stripe of the population's first key), the same population for every
// client of a seed.
func hotKeys(n int) func(*rme.LockTable, uint64, *rand.Rand) func() uint64 {
	return func(tbl *rme.LockTable, seed uint64, r *rand.Rand) func() uint64 {
		pr := rand.New(rand.NewSource(int64(seed)))
		first := pr.Uint64()
		pop := []uint64{first}
		for len(pop) < n {
			if k := pr.Uint64(); tbl.ShardIndex(k) == tbl.ShardIndex(first) {
				pop = append(pop, k)
			}
		}
		return func() uint64 { return pop[r.Intn(n)] }
	}
}

func zipfKeys(n uint64) func(*rme.LockTable, uint64, *rand.Rand) func() uint64 {
	return func(_ *rme.LockTable, _ uint64, r *rand.Rand) func() uint64 {
		return rand.NewZipf(r, 1.2, 1, n-1).Uint64
	}
}

// genRing builds client c's op ring for seed.
func genRing(w *workload, tbl *rme.LockTable, seed uint64, c int) []op {
	r := rand.New(rand.NewSource(int64(seed*0x9e3779b97f4a7c15) + int64(c)))
	next := w.keys(tbl, seed, r)
	ring := make([]op, ringLen)
	for i := range ring {
		o := op{k1: next(), s2: -1}
		if w.crashEvery == 0 {
			switch r.Intn(10) {
			case 7:
				o.kind = opLockContext
			case 8:
				o.kind = opTryLock
			case 9:
				o.kind = opBatch
				o.k2 = next()
			}
		}
		o.s1 = int32(tbl.ShardIndex(o.k1))
		if o.kind == opBatch {
			if s2 := int32(tbl.ShardIndex(o.k2)); s2 != o.s1 {
				o.s2 = s2
			}
		}
		o.arm = w.crashEvery > 0 && r.Intn(w.crashEvery) == 0
		ring[i] = o
	}
	return ring
}

// work runs n xorshift steps from x: the fixed CPU work of a critical
// section or a think pause.
func work(n int, x uint64) uint64 {
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	return x
}
