package rme_test

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	rme "github.com/rmelib/rme"
)

// This file pins the Checkpoint/RestoreTable contract in-process: exact
// round-trip of the arena shape and key-to-stripe map, strict epoch
// advancement across the restore, orphan surfacing and healing,
// option-mismatch rejection, and the never-panic decode of corrupted,
// truncated, or retired-format (v1) bytes. The real
// process-boundary proof lives in syscrash_test.go.

// distinctStripeKeys returns n keys mapping to n distinct stripes of tbl,
// so debris tests can place one tenancy per stripe without aliasing.
func distinctStripeKeys(tb testing.TB, tbl *rme.LockTable, n int) []uint64 {
	tb.Helper()
	if n > tbl.Shards() {
		tb.Fatalf("want %d distinct stripes from a %d-stripe table", n, tbl.Shards())
	}
	seen := make(map[int]bool)
	var out []uint64
	for k := uint64(1); len(out) < n; k++ {
		if si := tbl.ShardIndex(k); !seen[si] {
			seen[si] = true
			out = append(out, k)
		}
	}
	return out
}

// mustCheckpoint is Checkpoint with the error folded into the test.
func mustCheckpoint(tb testing.TB, tbl *rme.LockTable) []byte {
	tb.Helper()
	data, err := tbl.Checkpoint()
	if err != nil {
		tb.Fatalf("Checkpoint: %v", err)
	}
	return data
}

// TestCheckpointRoundTripEmpty pins the degenerate image: a table with no
// tenancies restores to an identical arena — same dimensions, same
// backend, same key-to-stripe map — with no orphans, every fencing epoch
// strictly advanced, and a working first passage.
func TestCheckpointRoundTripEmpty(t *testing.T) {
	tbl := rme.NewLockTable(8, 4, rme.WithTableSeed(0xfeed))
	defer tbl.Close()
	data := mustCheckpoint(t, tbl)

	nt, err := rme.RestoreTable(data)
	if err != nil {
		t.Fatalf("RestoreTable: %v", err)
	}
	defer nt.Close()
	if nt.Shards() != tbl.Shards() || nt.Ports() != tbl.Ports() || nt.Backend() != tbl.Backend() {
		t.Fatalf("restored arena %d×%d/%v, want %d×%d/%v",
			nt.Shards(), nt.Ports(), nt.Backend(), tbl.Shards(), tbl.Ports(), tbl.Backend())
	}
	for k := uint64(0); k < 1000; k++ {
		if nt.ShardIndex(k) != tbl.ShardIndex(k) {
			t.Fatalf("key %d moved stripe %d -> %d across restore", k, tbl.ShardIndex(k), nt.ShardIndex(k))
		}
	}
	if n := nt.Orphans(); n != 0 {
		t.Fatalf("empty image restored with %d orphans", n)
	}
	for s := 0; s < nt.Shards(); s++ {
		for p := 0; p < nt.Ports(); p++ {
			if got, old := nt.PortEpoch(s, p), tbl.PortEpoch(s, p); got != old+1 {
				t.Fatalf("stripe %d port %d: epoch %d after restore, want strictly advanced from %d", s, p, got, old)
			}
		}
	}
	nt.Lock(7)
	nt.Unlock(7)
	if !nt.Quiesced() {
		t.Fatal("restored table not quiesced after a clean passage")
	}
}

// TestCheckpointRestoreHealsOrphans builds the three debris shapes a
// system-wide crash strands — a holder dead inside its critical section, a
// worker dead mid-acquisition, and a delivered-but-never-settled async
// grant — checkpoints the wreckage, restores, and proves the normal
// two-phase reclaim heals all of it: correct orphan count, Held preserved
// across the restore, Orphans()==0 after the sweep, epochs advanced, and
// mutual exclusion intact under a post-heal storm. All three backends.
func TestCheckpointRestoreHealsOrphans(t *testing.T) {
	backendMatrix(t, func(t *testing.T, backend rme.ShardBackend) {
		tbl := rme.NewLockTable(8, 4, rme.WithTableSeed(99),
			rme.WithShardBackend(backend))
		keys := distinctStripeKeys(t, tbl, 3)
		keyCS, keyMid, keyGrant := keys[0], keys[1], keys[2]

		var killAll atomic.Bool
		tbl.SetCrashFunc(func(port int, point string) bool { return killAll.Load() })

		// Debris 1: a delivered grant whose requester dies before settling
		// it (no crash needed — the tenancy is simply never released).
		<-tbl.LockAsync(keyGrant)

		// Debris 2: a holder that dies inside Unlock, mid-release.
		tbl.Lock(keyCS)
		killAll.Store(true)
		if absorbCrash(func() { tbl.Unlock(keyCS) }) {
			t.Fatal("Unlock survived CrashAll")
		}

		// Debris 3: a worker that dies at its first acquisition step.
		if absorbCrash(func() { tbl.Lock(keyMid) }) {
			t.Fatal("Lock survived CrashAll")
		}

		heldCS, heldGrant := tbl.Held(keyCS), tbl.Held(keyGrant)
		if !heldGrant {
			t.Fatal("delivered grant's key not Held before checkpoint")
		}
		data := mustCheckpoint(t, tbl)
		oldEpoch := func(k uint64) uint64 {
			si := tbl.ShardIndex(k)
			var max uint64
			for p := 0; p < tbl.Ports(); p++ {
				if e := tbl.PortEpoch(si, p); e > max {
					max = e
				}
			}
			return max
		}
		epCS := oldEpoch(keyCS)
		tbl.Close() // the dead incarnation

		nt, err := rme.RestoreTable(data)
		if err != nil {
			t.Fatalf("RestoreTable: %v", err)
		}
		defer nt.Close()
		if got := nt.Orphans(); got != 3 {
			t.Fatalf("restored with %d orphans, want 3", got)
		}
		if nt.Held(keyCS) != heldCS || nt.Held(keyGrant) != heldGrant {
			t.Fatalf("Held not preserved: keyCS %v->%v, keyGrant %v->%v",
				heldCS, nt.Held(keyCS), heldGrant, nt.Held(keyGrant))
		}
		// Every fencing epoch on the dead holder's stripe is strictly past
		// the checkpointed image's.
		siCS := nt.ShardIndex(keyCS)
		for p := 0; p < nt.Ports(); p++ {
			if e := nt.PortEpoch(siCS, p); e <= epCS && nt.PortLeaseState(siCS, p) != rme.LeaseFree {
				t.Fatalf("stripe %d port %d: epoch %d not advanced past checkpointed max %d", siCS, p, e, epCS)
			}
		}

		// The restored incarnation's first job: sweep. Reclaim reports all
		// three, then the arena is fully clean.
		if n := nt.Reclaim(); n != 3 {
			t.Fatalf("Reclaim healed %d orphans, want 3", n)
		}
		if n := nt.Orphans(); n != 0 {
			t.Fatalf("%d orphans after reclaim", n)
		}
		if !nt.Quiesced() {
			t.Fatal("restored table not quiesced after reclaim")
		}

		// Mutual-exclusion referee over the healed arena, hitting the
		// previously-stranded keys hardest: no double grant, no lost grant.
		const workers = 8
		const iters = 200
		inside := make(map[uint64]*atomic.Int32)
		for _, k := range keys {
			inside[k] = &atomic.Int32{}
		}
		var done atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for i := 0; i < iters; i++ {
					k := keys[(w+i)%len(keys)]
					nt.Lock(k)
					if inside[k].Add(1) != 1 {
						t.Errorf("two holders of key %d after restore", k)
					}
					inside[k].Add(-1)
					nt.Unlock(k)
					done.Add(1)
				}
			}(w)
		}
		wg.Wait()
		if got := done.Load(); got != workers*iters {
			t.Fatalf("%d of %d passages completed after restore", got, workers*iters)
		}
	})
}

// TestCheckpointRestoreOptionMismatch pins the two restore-specific option
// rules: an explicit WithShardBackend or WithTableSeed that contradicts
// the image errors (Auto included, when it resolves to another shape), and
// a matching or Auto-resolving one does not. The bytes are valid in every
// case, so none of these wrap ErrCheckpointCorrupt.
func TestCheckpointRestoreOptionMismatch(t *testing.T) {
	tbl := rme.NewLockTable(4, 4, rme.WithTableSeed(7), rme.WithShardBackend(rme.FlatBackend))
	defer tbl.Close()
	data := mustCheckpoint(t, tbl)
	// The same arena at the default shape, which Auto resolves to (MCS at
	// four ports).
	auto := rme.NewLockTable(4, 4, rme.WithTableSeed(7))
	defer auto.Close()
	autoData := mustCheckpoint(t, auto)

	for _, bad := range []struct {
		name string
		opts []rme.Option
	}{
		{"contradicting backend", []rme.Option{rme.WithShardBackend(rme.TreeBackend)}},
		{"auto resolving to another shape", []rme.Option{rme.WithShardBackend(rme.AutoBackend)}},
		{"contradicting seed", []rme.Option{rme.WithTableSeed(8)}},
	} {
		if _, err := rme.RestoreTable(data, bad.opts...); err == nil {
			t.Fatalf("%s: restore succeeded", bad.name)
		} else if errors.Is(err, rme.ErrCheckpointCorrupt) {
			t.Fatalf("%s: option mismatch misclassified as corruption: %v", bad.name, err)
		}
	}
	for _, ok := range []struct {
		name string
		data []byte
		opts []rme.Option
	}{
		{"matching backend", data, []rme.Option{rme.WithShardBackend(rme.FlatBackend)}},
		{"auto resolving to the image's shape", autoData, []rme.Option{rme.WithShardBackend(rme.AutoBackend)}},
		{"matching seed", data, []rme.Option{rme.WithTableSeed(7)}},
	} {
		nt, err := rme.RestoreTable(ok.data, ok.opts...)
		if err != nil {
			t.Fatalf("%s: %v", ok.name, err)
		}
		nt.Close()
	}
}

// TestCheckpointCorruptBytes feeds RestoreTable every way bytes go bad —
// nil, empty, truncated at every prefix length, padded with trailing
// garbage, each byte flipped in turn, and a well-formed, checksummed image
// of the retired generation 1 layout (which carried a per-stripe lock
// shape and active-port bound) — and requires an error wrapping
// ErrCheckpointCorrupt every time, never a panic (the test harness turns
// any panic into a failure). FuzzRestoreTable explores past these inputs.
func TestCheckpointCorruptBytes(t *testing.T) {
	data := heldKeyImage(t) // some non-trivial state in the image

	mustReject := func(name string, b []byte) {
		t.Helper()
		nt, err := rme.RestoreTable(b)
		if err == nil {
			nt.Close()
			t.Fatalf("%s: restore succeeded", name)
		}
		if !errors.Is(err, rme.ErrCheckpointCorrupt) {
			t.Fatalf("%s: error does not wrap ErrCheckpointCorrupt: %v", name, err)
		}
	}
	mustReject("nil", nil)
	mustReject("empty", []byte{})
	for n := 0; n < len(data); n++ {
		mustReject("truncated", data[:n:n])
	}
	mustReject("trailing garbage", append(append([]byte{}, data...), 0))
	for i := 0; i < len(data); i++ {
		mut := append([]byte{}, data...)
		mut[i] ^= 0xff
		mustReject("byte flipped", mut)
	}

	// Two checksum-valid forgeries whose structural checks used to let
	// them through: dimensions whose record count wraps 64 bits onto the
	// image's real length (the restore then asked for a 42 GB stripe
	// table), and an MCS image with more ports than an MCS lock supports.
	mustReject("arena size wrapping 64 bits", forgeImage(752531719, 1441936021, rme.FlatBackend, 100))
	mustReject("MCS ports past the backend's limit", forgeImage(1, 65536, rme.MCSBackend, 0))

	mustReject("v1 image", v1Image())
}

// v1Image is a well-formed, checksummed image of the retired generation 1
// layout, which carried a per-stripe lock shape and active-port bound.
func v1Image() []byte {
	le := binary.LittleEndian
	var v1 []byte
	v1 = append(v1, "RMECKPT1"...)
	v1 = le.AppendUint32(v1, 1)    // version
	v1 = le.AppendUint64(v1, 0x51) // seed
	v1 = le.AppendUint32(v1, 1)    // shards
	v1 = le.AppendUint32(v1, 1)    // ports
	v1 = append(v1, byte(rme.FlatBackend))
	v1 = append(v1, byte(rme.FlatBackend)) // stripe 0 backend
	v1 = le.AppendUint32(v1, 1)            // stripe 0 active bound
	v1 = le.AppendUint64(v1, 0)            // port 0 lease word
	v1 = le.AppendUint64(v1, 0)            // port 0 key
	v1 = append(v1, 0)                     // port 0 flags
	return le.AppendUint32(v1, crc32.ChecksumIEEE(v1))
}

// heldKeyImage checkpoints a 2×2 table while key 1 is held — the image the
// corrupt-bytes test truncates and flips.
func heldKeyImage(tb testing.TB) []byte {
	tbl := rme.NewLockTable(2, 2, rme.WithTableSeed(3))
	defer tbl.Close()
	tbl.Lock(1)
	defer tbl.Unlock(1)
	return mustCheckpoint(tb, tbl)
}

// orphanImage checkpoints a 2×4 table of the given backend after two
// deaths: a holder dead inside its critical section and a worker dead at
// its first acquisition step.
func orphanImage(tb testing.TB, backend rme.ShardBackend) []byte {
	tbl := rme.NewLockTable(2, 4, rme.WithTableSeed(5), rme.WithShardBackend(backend))
	defer tbl.Close()
	keys := distinctStripeKeys(tb, tbl, 2)
	tbl.Lock(keys[0])
	tbl.SetCrashFunc(func(int, string) bool { return true })
	if absorbCrash(func() { tbl.Unlock(keys[0]) }) || absorbCrash(func() { tbl.Lock(keys[1]) }) {
		tb.Fatal("a passage survived an always-on crash hook")
	}
	return mustCheckpoint(tb, tbl)
}

// FuzzRestoreTable drives RestoreTable's decoder past its checksum: each
// input is restored as given and again with its CRC trailer recomputed, so
// mutations reach the structural checks instead of all dying at the CRC.
// Either the error wraps ErrCheckpointCorrupt, or the table restores, one
// Reclaim leaves no orphans, and Close returns; a panic fails the target.
// Seeds are Checkpoint images (empty, a held key, orphans on each backend)
// plus the corrupt-bytes test's truncations, flips, and v1 image.
func FuzzRestoreTable(f *testing.F) {
	empty := rme.NewLockTable(2, 2, rme.WithTableSeed(1))
	f.Add(mustCheckpoint(f, empty))
	empty.Close()
	held := heldKeyImage(f)
	f.Add(held)
	for _, b := range []rme.ShardBackend{rme.FlatBackend, rme.TreeBackend, rme.MCSBackend} {
		f.Add(orphanImage(f, b))
	}
	for n := 0; n < len(held); n++ {
		f.Add(held[:n:n])
	}
	for i := range held {
		mut := append([]byte{}, held...)
		mut[i] ^= 0xff
		f.Add(mut)
	}
	f.Add(v1Image())

	f.Fuzz(func(t *testing.T, data []byte) {
		restoreChecked(t, data)
		if len(data) >= 4 {
			fixed := append([]byte{}, data...)
			body := fixed[:len(fixed)-4]
			binary.LittleEndian.PutUint32(fixed[len(body):], crc32.ChecksumIEEE(body))
			restoreChecked(t, fixed)
		}
	})
}

// restoreChecked is FuzzRestoreTable's property for one input.
func restoreChecked(t *testing.T, data []byte) {
	nt, err := rme.RestoreTable(data)
	if err != nil {
		if !errors.Is(err, rme.ErrCheckpointCorrupt) {
			t.Fatalf("error does not wrap ErrCheckpointCorrupt: %v", err)
		}
		return
	}
	nt.Reclaim()
	if n := nt.Orphans(); n != 0 {
		t.Fatalf("%d orphans left after Reclaim", n)
	}
	nt.Close()
}

// forgeImage builds a checksummed current-format image declaring a
// shards×ports arena on backend. Its port records are all zero (free,
// keyless), and there are exactly as many as the dimensions declare unless
// size (the whole image's length) overrides that.
func forgeImage(shards, ports uint32, backend rme.ShardBackend, size int) []byte {
	le := binary.LittleEndian
	img := []byte("RMECKPT2")
	img = le.AppendUint32(img, 2)    // version
	img = le.AppendUint64(img, 0x51) // seed
	img = le.AppendUint32(img, shards)
	img = le.AppendUint32(img, ports)
	img = append(img, byte(backend))
	if size == 0 {
		size = len(img) + int(shards)*int(ports)*(8+8+1) + 4
	}
	img = append(img, make([]byte, size-len(img)-4)...)
	return le.AppendUint32(img, crc32.ChecksumIEEE(img))
}

// TestCheckpointRestoreSupervisorEagerSweep proves the restore-triggered
// sweep: a supervised restore of an image carrying orphans heals them
// immediately, even with the supervisor's interval set far beyond the test
// deadline — only the eager first tick can have done it.
func TestCheckpointRestoreSupervisorEagerSweep(t *testing.T) {
	tbl := rme.NewLockTable(4, 4, rme.WithTableSeed(13))
	key := distinctStripeKeys(t, tbl, 1)[0]
	var killAll atomic.Bool
	tbl.SetCrashFunc(func(port int, point string) bool { return killAll.Load() })
	tbl.Lock(key)
	killAll.Store(true)
	if absorbCrash(func() { tbl.Unlock(key) }) {
		t.Fatal("Unlock survived CrashAll")
	}
	data := mustCheckpoint(t, tbl)
	tbl.Close()

	nt, err := rme.RestoreTable(data, rme.WithSupervisor(rme.SupervisorConfig{Interval: time.Hour}))
	if err != nil {
		t.Fatalf("RestoreTable: %v", err)
	}
	defer nt.Close()
	waitQuiesced(t, nt, 5*time.Second)
	// The healed stripe serves immediately.
	nt.Lock(key)
	nt.Unlock(key)
}
