package rme_test

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	rme "github.com/rmelib/rme"
)

// This file is the system-wide crash harness: CrashAll kills every lessee
// of a table at injected points — a holder inside its release, a batch
// mid-Unlock across two stripes, an async grant delivered but never
// settled, a worker at its first acquisition step — and the wreckage is
// checkpointed.
// Recovery is then proven two ways: in-process (TestSyscrashCrashAll...)
// and across a real process boundary (TestSyscrashProcessBoundary execs
// the test binary again; the child restores from the checkpoint bytes
// alone, with none of the parent incarnation's memory, and must show
// mutual exclusion, Orphans()==0 after reclaim, and no lost or double
// grant). All three shard backends.

// Environment contract between the exec'd parent and child halves of the
// process-boundary test.
const (
	envSyscrashFile    = "RME_SYSCRASH_FILE"
	envSyscrashBackend = "RME_SYSCRASH_BACKEND"
	envSyscrashShards  = "RME_SYSCRASH_SHARDS"
	envSyscrashPorts   = "RME_SYSCRASH_PORTS"
	envSyscrashOrphans = "RME_SYSCRASH_ORPHANS"
	envSyscrashHeld    = "RME_SYSCRASH_HELD"
	envSyscrashKeys    = "RME_SYSCRASH_KEYS"

	syscrashChildOK = "SYSCRASH-CHILD-OK"
)

// syscrashDebris is what a CrashAll leaves behind: the keys the dead
// tenancies were engaged with (one stripe each), which of them were inside
// their critical sections, and the checkpoint image taken while the
// wreckage was live.
type syscrashDebris struct {
	keys    []uint64 // all debris keys, distinct stripes
	held    []uint64 // the subset whose stripes' CS the dead tenancy owned
	orphans int
	image   []byte
}

// crashAll drives one tenancy of each kind onto its own stripe, flips the
// kill switch so every subsequent protocol step dies, and checkpoints the
// wreckage. It models the 2023 paper's crash shape: the whole process dies
// at once, every in-flight tenancy with it.
func crashAll(t *testing.T, tbl *rme.LockTable) syscrashDebris {
	t.Helper()
	keys := distinctStripeKeys(t, tbl, 5)
	kBatch1, kBatch2, kGrant, kCS, kMid := keys[0], keys[1], keys[2], keys[3], keys[4]

	var killAll atomic.Bool
	tbl.SetCrashFunc(func(port int, point string) bool { return killAll.Load() })

	// Tenancies engaged before the crash: a two-stripe batch held, an
	// async grant delivered, a key held in its critical section.
	b := tbl.LockBatch([]uint64{kBatch1, kBatch2})
	<-tbl.LockAsync(kGrant) // requester dies before settling it
	tbl.Lock(kCS)

	// The system-wide crash: every lessee dies at its next injected point.
	killAll.Store(true)
	if absorbCrash(func() { b.Unlock() }) {
		t.Fatal("batch release survived CrashAll")
	}
	if absorbCrash(func() { tbl.Unlock(kCS) }) {
		t.Fatal("release survived CrashAll")
	}
	if absorbCrash(func() { tbl.Lock(kMid) }) {
		t.Fatal("acquisition survived CrashAll")
	}

	if got := tbl.Orphans(); got < 4 {
		t.Fatalf("CrashAll left %d orphans, want at least the batch pair and the CS/mid deaths", got)
	}
	// Restore surfaces every non-free lease as an orphan — the already
	// orphaned ones plus still-Held tenancies like the unsettled grant,
	// whose owner is dead even though nothing has noticed yet.
	orphans := tbl.InUse()
	var held []uint64
	for _, k := range keys {
		if tbl.Held(k) {
			held = append(held, k)
		}
	}
	if len(held) == 0 {
		t.Fatal("no debris key holds its critical section; the in-CS adoption path would go untested")
	}

	image := mustCheckpoint(t, tbl)
	return syscrashDebris{keys: keys, held: held, orphans: orphans, image: image}
}

// assertRestoredHeals is the recovery referee both the in-process and the
// exec'd-child tests run against a freshly restored table: orphan count
// and Held carried over, reclaim drains everything, and a storm over the
// previously-stranded keys completes with mutual exclusion intact — no
// lost grant (every passage finishes), no double grant (the per-key
// referee counter). The sync storm runs concurrently with the sweep, so
// time-to-first-grant is also exercised: arrivals queue behind adopted
// dead holders and are granted as recovery releases them.
func assertRestoredHeals(t *testing.T, nt *rme.LockTable, keys, held []uint64, orphans int) {
	t.Helper()
	if got := nt.Orphans(); got != orphans {
		t.Fatalf("restored with %d orphans, want %d", got, orphans)
	}
	for _, k := range held {
		if !nt.Held(k) {
			t.Fatalf("key %d held its CS at checkpoint; restored image lost it", k)
		}
	}
	reclaimed := make(chan int, 1)
	go func() { reclaimed <- nt.Reclaim() }()

	const workers = 8
	const iters = 300
	inside := make(map[uint64]*atomic.Int32, len(keys))
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
				k := keys[(w*13+i)%len(keys)]
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
		t.Fatalf("%d of %d post-restore passages completed", got, workers*iters)
	}
	if got := <-reclaimed; got != orphans {
		t.Fatalf("Reclaim healed %d orphans, want %d", got, orphans)
	}
	if got := nt.Orphans(); got != 0 {
		t.Fatalf("%d orphans after reclaim", got)
	}

	// The async and batch pipelines work in the restored incarnation too.
	g := <-nt.LockAsync(keys[0])
	g.Unlock()
	nt.LockBatch(keys).Unlock()
	if !nt.Quiesced() {
		t.Fatal("restored table not quiesced after the storm")
	}
}

// TestSyscrashCrashAllRestore is the in-process form: CrashAll, checkpoint,
// restore, heal — per backend. The exec'd-child test proves
// the same flow across a real process boundary; this one keeps the full
// matrix fast and debuggable.
func TestSyscrashCrashAllRestore(t *testing.T) {
	backendMatrix(t, func(t *testing.T, backend rme.ShardBackend) {
		tbl := rme.NewLockTable(8, 4, rme.WithTableSeed(0x5eed),
			rme.WithShardBackend(backend))
		d := crashAll(t, tbl)
		tbl.Close()

		nt, err := rme.RestoreTable(d.image)
		if err != nil {
			t.Fatalf("RestoreTable: %v", err)
		}
		defer nt.Close()
		assertRestoredHeals(t, nt, d.keys, d.held, d.orphans)
	})
}

// TestSyscrashProcessBoundary is the tentpole proof: the parent CrashAlls
// a table and writes the checkpoint to disk; a freshly exec'd child — a
// real OS process with none of this incarnation's memory — restores from
// the bytes, asserts the arena and orphan state carried over, reclaims,
// and runs the mutual-exclusion referee. Per backend.
func TestSyscrashProcessBoundary(t *testing.T) {
	if os.Getenv(envSyscrashFile) != "" {
		t.Skip("child process run; the parent drives TestSyscrashChildRestore directly")
	}
	backendMatrix(t, func(t *testing.T, backend rme.ShardBackend) {
		tbl := rme.NewLockTable(8, 4, rme.WithTableSeed(0x5eed),
			rme.WithShardBackend(backend))
		d := crashAll(t, tbl)
		tbl.Close()

		path := filepath.Join(t.TempDir(), "table.ckpt")
		if err := os.WriteFile(path, d.image, 0o644); err != nil {
			t.Fatal(err)
		}
		cmd := exec.Command(os.Args[0],
			"-test.run=^TestSyscrashChildRestore$", "-test.count=1", "-test.v")
		cmd.Env = append(os.Environ(),
			envSyscrashFile+"="+path,
			envSyscrashBackend+"="+tbl.Backend().String(),
			envSyscrashShards+"="+strconv.Itoa(tbl.Shards()),
			envSyscrashPorts+"="+strconv.Itoa(tbl.Ports()),
			envSyscrashOrphans+"="+strconv.Itoa(d.orphans),
			envSyscrashHeld+"="+joinKeys(d.held),
			envSyscrashKeys+"="+joinKeys(d.keys),
		)
		out, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("child restore process failed: %v\n%s", err, out)
		}
		if !strings.Contains(string(out), syscrashChildOK) {
			t.Fatalf("child ran but never reported %s:\n%s", syscrashChildOK, out)
		}
	})
}

// TestSyscrashChildRestore is the child half of the process-boundary test.
// It runs only when the parent exec'd it with the environment contract set
// (a plain `go test` run skips it), restores the table from nothing but
// the checkpoint file, and reports the OK marker the parent greps for.
func TestSyscrashChildRestore(t *testing.T) {
	path := os.Getenv(envSyscrashFile)
	if path == "" {
		t.Skip("not a syscrash child process")
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	nt, err := rme.RestoreTable(data)
	if err != nil {
		t.Fatalf("RestoreTable in the child process: %v", err)
	}
	defer nt.Close()

	wantShards := mustAtoi(t, envSyscrashShards)
	wantPorts := mustAtoi(t, envSyscrashPorts)
	wantOrphans := mustAtoi(t, envSyscrashOrphans)
	if nt.Shards() != wantShards || nt.Ports() != wantPorts {
		t.Fatalf("restored arena %d×%d, parent had %d×%d", nt.Shards(), nt.Ports(), wantShards, wantPorts)
	}
	if got, want := nt.Backend().String(), os.Getenv(envSyscrashBackend); got != want {
		t.Fatalf("restored backend %s, parent had %s", got, want)
	}
	keys := splitKeys(t, os.Getenv(envSyscrashKeys))
	held := splitKeys(t, os.Getenv(envSyscrashHeld))
	assertRestoredHeals(t, nt, keys, held, wantOrphans)
	fmt.Printf("%s backend=%s orphans_healed=%d\n", syscrashChildOK, nt.Backend(), wantOrphans)
}

func joinKeys(keys []uint64) string {
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = strconv.FormatUint(k, 10)
	}
	return strings.Join(parts, ",")
}

func splitKeys(t *testing.T, s string) []uint64 {
	t.Helper()
	var out []uint64
	for _, part := range strings.Split(s, ",") {
		if part == "" {
			continue
		}
		k, err := strconv.ParseUint(part, 10, 64)
		if err != nil {
			t.Fatalf("bad key list %q: %v", s, err)
		}
		out = append(out, k)
	}
	return out
}

func mustAtoi(t *testing.T, env string) int {
	t.Helper()
	n, err := strconv.Atoi(os.Getenv(env))
	if err != nil {
		t.Fatalf("bad %s=%q: %v", env, os.Getenv(env), err)
	}
	return n
}
