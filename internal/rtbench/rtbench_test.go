package rtbench

import (
	"testing"

	rme "github.com/rmelib/rme"
)

// TestRunCell smokes one matrix cell and pins the headline zero-allocation
// claim: warm uncontended passages allocate nothing (the harness's own
// worker spawn amortizes below 0.01/op).
func TestRunCell(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full measurement pass")
	}
	sc := Scenarios()[0] // uncontended
	sc.Iters = 100_000
	s := Run(sc, "yield")
	if s.NsPerOp <= 0 {
		t.Fatalf("NsPerOp = %v, want > 0", s.NsPerOp)
	}
	if s.AllocsPerOp >= 0.01 {
		t.Fatalf("uncontended AllocsPerOp = %v, want ~0", s.AllocsPerOp)
	}
	if s.Iters == 0 || s.Ports != 1 {
		t.Fatalf("bad sample shape: %+v", s)
	}
}

// TestRunTreeCell smokes the arbitration-tree cell: the sample must carry
// the tree shape (height, per-level wake profile) and its aggregate wake
// counter must equal the per-level sum.
func TestRunTreeCell(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full measurement pass")
	}
	var sc Scenario
	for _, s := range Scenarios() {
		if s.Name == "tree" {
			sc = s
		}
	}
	if !sc.Tree {
		t.Fatal("tree scenario missing from Scenarios()")
	}
	sc.Iters = 5_000
	s := Run(sc, "yield")
	if s.NsPerOp <= 0 {
		t.Fatalf("NsPerOp = %v, want > 0", s.NsPerOp)
	}
	if s.Levels <= 0 || len(s.LevelWakesPerOp) != s.Levels {
		t.Fatalf("tree sample shape wrong: levels=%d profile=%v", s.Levels, s.LevelWakesPerOp)
	}
	var sum float64
	for _, w := range s.LevelWakesPerOp {
		sum += w
	}
	if diff := sum - s.WakesPerOp; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("level wakes sum %v != aggregate wakes %v", sum, s.WakesPerOp)
	}
	if sc.FileName() != "tree" {
		t.Fatalf("tree scenario file = %q, want tree", sc.FileName())
	}
}

// TestRunKeyedCell smokes the keyed cells: the crash-free zipf cell must
// uphold the zero-allocation claim, and the crash-mix cell
// must actually inject (and fully recover from) crashes.
func TestRunKeyedCell(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full measurement pass")
	}
	var zipf, crash Scenario
	for _, s := range Scenarios() {
		switch s.Name {
		case "keyed_zipf":
			zipf = s
		case "keyed_crash":
			crash = s
		}
	}
	if !zipf.Keyed || !crash.Keyed {
		t.Fatal("keyed scenarios missing from Scenarios()")
	}
	zipf.Iters = 20_000
	s := Run(zipf, "yield")
	if s.NsPerOp <= 0 || s.Keys != zipf.Keys || s.Crashes != 0 {
		t.Fatalf("bad keyed sample shape: %+v", s)
	}
	if s.AllocsPerOp >= 0.01 {
		t.Fatalf("crash-free keyed AllocsPerOp = %v, want ~0", s.AllocsPerOp)
	}
	if zipf.FileName() != "keyed" || crash.FileName() != "keyed_crash" {
		t.Fatalf("keyed file groups wrong: %q, %q", zipf.FileName(), crash.FileName())
	}
	crash.Iters = 20_000
	s = Run(crash, "yield")
	if s.Crashes == 0 {
		t.Fatal("crash-mix cell injected no crashes")
	}
}

// TestRunKeyedMCSCell smokes the MCS leg of the backend showdown: the
// sample must record the mcs backend, stay inside the zero-allocation
// gate, and carry live wait-engine counters — keyed cells read the
// table's own per-stripe collectors (LockTable.Stats), and a regression
// to caller-side wrapping would silently zero every RMR-proxy column
// because the table's own instrumentation wrap is outermost.
func TestRunKeyedMCSCell(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full measurement pass")
	}
	var sc Scenario
	for _, s := range Scenarios() {
		if s.Name == "keyed_mcs" {
			sc = s
		}
	}
	if !sc.Keyed || sc.Backend != rme.MCSBackend || sc.FileName() != "keyed_mcs" {
		t.Fatalf("keyed_mcs scenario shape wrong: %+v", sc)
	}
	// Keep the scenario's configured passage count: the harness's own
	// 64 worker spawns amortize below the 0.01/op gate only at full
	// scale (observed 0.026/op when cut to 10k passages).
	s := Run(sc, "yield")
	if s.Backend != "mcs" {
		t.Fatalf("sample backend = %q, want mcs", s.Backend)
	}
	if s.AllocsPerOp >= 0.01 {
		t.Fatalf("crash-free MCS keyed AllocsPerOp = %v, want ~0", s.AllocsPerOp)
	}
	// 64 workers on 2 stripes are always queued; a zero here means the
	// counters were not collected, not that nothing blocked.
	if s.WakesPerOp <= 0 || s.SleepsPerOp <= 0 {
		t.Fatalf("MCS keyed cell carries no wait counters: %+v", s)
	}
}

// TestRunKeyedAbortCell smokes the abort tier: every passage routes through
// LockContext, every 100th carries a pre-expired deadline, and the sample
// must record the resulting ~1% shed rate while staying inside the
// zero-allocation gate — the headline claim of the keyed_abort file group
// is that neither the cancellable grant path nor the deterministic shed
// path allocates.
func TestRunKeyedAbortCell(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full measurement pass")
	}
	var sc Scenario
	for _, s := range Scenarios() {
		if s.Name == "keyed_abort" {
			sc = s
		}
	}
	if !sc.Keyed || sc.AbortEvery != 100 || sc.FileName() != "keyed_abort" {
		t.Fatalf("keyed_abort scenario shape wrong: %+v", sc)
	}
	s := Run(sc, "yield")
	if s.NsPerOp <= 0 || s.Crashes != 0 {
		t.Fatalf("bad abort sample shape: %+v", s)
	}
	if s.AllocsPerOp >= 0.01 {
		t.Fatalf("abort-tier AllocsPerOp = %v, want ~0", s.AllocsPerOp)
	}
	// 1 shed per AbortEvery passages per worker, minus each worker's
	// sub-AbortEvery remainder — so the measured rate sits just under
	// the nominal 1% but can never reach zero or exceed it.
	want := 1.0 / float64(sc.AbortEvery)
	if s.ShedsPerOp <= want/2 || s.ShedsPerOp > want {
		t.Fatalf("ShedsPerOp = %v, want in (%v, %v]", s.ShedsPerOp, want/2, want)
	}
}

// TestParseBackend pins the -backend vocabulary: all four names, case
// folded, and an enumerating error for anything else.
func TestParseBackend(t *testing.T) {
	cases := []struct {
		in   string
		want rme.ShardBackend
	}{
		{"flat", rme.FlatBackend},
		{"tree", rme.TreeBackend},
		{"mcs", rme.MCSBackend},
		{"auto", rme.AutoBackend},
		{"MCS", rme.MCSBackend},
		{"Tree", rme.TreeBackend},
	}
	for _, c := range cases {
		got, err := ParseBackend(c.in)
		if err != nil || got != c.want {
			t.Fatalf("ParseBackend(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
	}
	if _, err := ParseBackend("bogus"); err == nil {
		t.Fatal("ParseBackend(bogus) succeeded, want enumerating error")
	}
}
