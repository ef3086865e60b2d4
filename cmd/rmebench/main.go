// Command rmebench regenerates the paper-reproduction experiment tables
// recorded in EXPERIMENTS.md, and benchmarks the runtime lock stack across
// the wait-strategy axis. Experiment runs (E1–E11) are
// deterministic; the runtime benchmarks (-json, -compare) are wall-clock
// and hardware-dependent.
//
// Usage:
//
//	rmebench                          # run every experiment
//	rmebench -exp E5                  # run one experiment (E1..E11)
//	rmebench -list                    # list experiments
//	rmebench -md                      # emit EXPERIMENTS.md to stdout
//	rmebench -json                    # benchmark the runtime lock, write BENCH_<scenario>.json
//	rmebench -json -stats             # also dump each keyed cell's TableStats to STATS_<scenario>.json
//	rmebench -compare BENCH_x.json    # re-run x's scenarios, fail on regression vs the file
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	rme "github.com/rmelib/rme"
	"github.com/rmelib/rme/internal/experiments"
	"github.com/rmelib/rme/internal/rtbench"
)

func main() {
	var (
		exp      = flag.String("exp", "", "experiment id to run (E1..E11); empty = all")
		list     = flag.Bool("list", false, "list experiments and exit")
		md       = flag.Bool("md", false, "emit EXPERIMENTS.md markdown to stdout")
		jsonOut  = flag.Bool("json", false, "benchmark the runtime lock per wait strategy and write BENCH_<scenario>.json files")
		outDir   = flag.String("outdir", ".", "directory for the BENCH_<scenario>.json files")
		scenario = flag.String("scenario", "", "with -json: run only these comma-separated scenarios (uncontended, contended8, oversubscribed, tree, tree_oversubscribed, keyed_uniform, keyed_zipf, keyed_crash, keyed_abort, keyed_abort_tree, keyed_abort_mcs, keyed_async, keyed_manyshards, keyed_supervised, keyed_hot8, keyed_batch, keyed_hiport, keyed_tree, keyed_mcs, keyed_syscrash, keyed_syscrash_1m); scenarios sharing a BENCH file should be regenerated together")
		backend  = flag.String("backend", "", "with -json: force every keyed scenario onto this shard backend (flat, tree, mcs, auto; case-insensitive) instead of each scenario's own — for ad-hoc backend comparisons; leave unset when regenerating committed baselines")
		stats    = flag.Bool("stats", false, "with -json: capture each keyed cell's post-run TableStats snapshot (per-stripe counters, supervisor sweeps and heals, dispatcher pool gauges) and write STATS_<file>.json alongside the BENCH files; the snapshots are stripped from the BENCH files themselves, which record only gate-comparable samples")
		compare  = flag.String("compare", "", "comma-separated baseline BENCH_<scenario>.json files: re-run their scenarios and exit non-zero on regression")
		tol      = flag.Float64("tol", 0.20, "with -compare: allowed fractional ns/op increase before it counts as a regression")
	)
	flag.Parse()

	if *compare != "" {
		if err := runCompare(strings.Split(*compare, ","), *tol); err != nil {
			fmt.Fprintf(os.Stderr, "rmebench: %v\n", err)
			os.Exit(1)
		}
		return
	}

	if *jsonOut {
		if err := runRuntimeBench(*outDir, *scenario, *backend, *stats); err != nil {
			fmt.Fprintf(os.Stderr, "rmebench: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *backend != "" {
		fmt.Fprintln(os.Stderr, "rmebench: -backend is only meaningful with -json")
		os.Exit(1)
	}
	if *stats {
		fmt.Fprintln(os.Stderr, "rmebench: -stats is only meaningful with -json")
		os.Exit(1)
	}

	all := experiments.All()
	if *list {
		for _, r := range all {
			fmt.Printf("%-4s %s\n", r.ID, r.Title)
		}
		return
	}

	if *md {
		if failed := emitMarkdown(all); failed > 0 {
			fmt.Fprintf(os.Stderr, "rmebench: %d experiment(s) failed\n", failed)
			os.Exit(1)
		}
		return
	}

	failed := 0
	ran := 0
	for _, r := range all {
		if *exp != "" && !strings.EqualFold(*exp, r.ID) {
			continue
		}
		ran++
		fmt.Printf("=== %s: %s ===\n", r.ID, r.Title)
		res := r.Run()
		for _, tb := range res.Tables {
			fmt.Println(tb)
		}
		for _, n := range res.Notes {
			fmt.Printf("  %s\n", n)
		}
		if res.Err != nil {
			fmt.Printf("  FAILED: %v\n", res.Err)
			failed++
		}
		fmt.Println()
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "rmebench: no experiment matches -exp %q (try -list)\n", *exp)
		os.Exit(1)
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "rmebench: %d experiment(s) failed\n", failed)
		os.Exit(1)
	}
}

func printSample(s rtbench.Sample) {
	fmt.Fprintf(os.Stderr, "  %-9s %12.1f ns/op %7.3f allocs/op %8.2f wakes/op",
		s.Strategy, s.NsPerOp, s.AllocsPerOp, s.WakesPerOp)
	if len(s.LevelWakesPerOp) > 0 {
		fmt.Fprintf(os.Stderr, "  levels[")
		for i, w := range s.LevelWakesPerOp {
			if i > 0 {
				fmt.Fprintf(os.Stderr, " ")
			}
			fmt.Fprintf(os.Stderr, "%.2f", w)
		}
		fmt.Fprintf(os.Stderr, "]")
	}
	fmt.Fprintln(os.Stderr)
}

// runRuntimeBench measures the strategy matrix and writes one
// BENCH_<file>.json per scenario file group (the two tree scenarios share
// BENCH_tree.json, the keyed backend pair BENCH_keyed_tree.json). A
// non-empty backendName overrides every keyed scenario's shard backend —
// the ad-hoc comparison mode; committed baselines are regenerated with
// each scenario's own backend. With collectStats the keyed cells'
// post-run TableStats snapshots are split into STATS_<file>.json files
// and stripped from the BENCH samples, so the committed baselines stay
// free of point-in-time diagnostic state.
func runRuntimeBench(outDir, only, backendName string, collectStats bool) error {
	// Fail on an unwritable destination before burning benchmark time.
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	// Validate the whole request before burning benchmark time: every
	// scenario name must exist (a typo in a comma-separated list would
	// otherwise silently regenerate a shared BENCH file with only half
	// its scenario group), and the backend override must parse.
	known := make(map[string]bool)
	var names []string
	for _, sc := range rtbench.Scenarios() {
		known[strings.ToLower(sc.Name)] = true
		names = append(names, sc.Name)
	}
	want := make(map[string]bool)
	if only != "" {
		for _, name := range strings.Split(only, ",") {
			name = strings.ToLower(strings.TrimSpace(name))
			if !known[name] {
				return fmt.Errorf("no scenario matches -scenario %q (have: %s)", name, strings.Join(names, ", "))
			}
			want[name] = true
		}
	}
	backend := rme.AutoBackend
	if backendName != "" {
		var err error
		if backend, err = rtbench.ParseBackend(backendName); err != nil {
			return err
		}
	}
	rtbench.CollectStats = collectStats
	var fileOrder []string
	byFile := make(map[string][]rtbench.Sample)
	statsByFile := make(map[string][]statsEntry)
	for _, sc := range rtbench.Scenarios() {
		if only != "" && !want[strings.ToLower(sc.Name)] {
			continue
		}
		if backendName != "" && sc.Keyed {
			sc.Backend = backend
		}
		fmt.Fprintf(os.Stderr, "benchmarking %s (%d ports)...\n", sc.Name, sc.Ports())
		samples := rtbench.RunScenario(sc)
		for _, s := range samples {
			printSample(s)
		}
		f := sc.FileName()
		if _, ok := byFile[f]; !ok {
			fileOrder = append(fileOrder, f)
		}
		for i := range samples {
			// Split the diagnostic snapshot out of the gate baseline: the
			// BENCH file records only the comparable numbers, STATS_<f>
			// the per-stripe state the cell ended in.
			if samples[i].TableStats != nil {
				statsByFile[f] = append(statsByFile[f], statsEntry{
					Scenario: samples[i].Scenario,
					Strategy: samples[i].Strategy,
					Stats:    samples[i].TableStats,
				})
				samples[i].TableStats = nil
			}
		}
		byFile[f] = append(byFile[f], samples...)
	}
	for _, f := range fileOrder {
		buf, err := json.MarshalIndent(byFile[f], "", "  ")
		if err != nil {
			return err
		}
		path := fmt.Sprintf("%s/BENCH_%s.json", outDir, f)
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", path)
		if entries := statsByFile[f]; len(entries) > 0 {
			buf, err := json.MarshalIndent(entries, "", "  ")
			if err != nil {
				return err
			}
			path := fmt.Sprintf("%s/STATS_%s.json", outDir, f)
			if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", path)
		}
	}
	return nil
}

// statsEntry is one keyed cell's post-run TableStats snapshot in a
// STATS_<file>.json dump, keyed the same way compare keys cells.
type statsEntry struct {
	Scenario string          `json:"scenario"`
	Strategy string          `json:"strategy"`
	Stats    *rme.TableStats `json:"table_stats"`
}

// cellKey identifies one matrix cell across baseline and fresh runs.
type cellKey struct {
	Scenario string
	Strategy string
}

// compareCell judges one fresh sample against its baseline: "ok", or the
// regression verdict. Allocations gate machine-independently; ns/op only
// against a baseline recorded at the same GOMAXPROCS. A baseline cell
// flagged AllocExempt (the syscrash rounds, whose allocations are arena
// construction by design) is gated on ns/op only.
func compareCell(b, s rtbench.Sample, tol float64) string {
	const allocEps = 0.01
	if !b.AllocExempt && s.AllocsPerOp > b.AllocsPerOp+allocEps {
		return "ALLOCS REGRESSION"
	}
	if s.GOMAXPROCS == b.GOMAXPROCS && s.NsPerOp > b.NsPerOp*(1+tol) {
		return "NS/OP REGRESSION"
	}
	return "ok"
}

// runCompare re-runs every scenario recorded in the given baseline files
// and fails (non-nil error) on a performance regression against them:
//
//   - allocs/op may not increase (beyond a 0.01 rounding epsilon) — this
//     is the machine-independent zero-allocation gate; cells whose baseline
//     carries the AllocExempt flag skip it (their allocations are by-design
//     construction work, not leaks) and gate on ns/op alone;
//   - ns/op may not increase by more than tol, compared only when the
//     baseline was recorded at the same GOMAXPROCS (wall-clock numbers
//     from a different core count are not comparable).
//
// A scenario with cells over budget is re-run (up to two retries), and a
// cell passes if any attempt passes: yield-heavy contended cells on a
// busy host jitter past any reasonable tolerance in single runs, and a
// transient scheduler hiccup must not fail the gate — while a real
// regression fails every attempt and still trips it.
//
// Cells present on only one side (e.g. the pure-spin strategy, which is
// auto-skipped when ports exceed GOMAXPROCS) are reported and skipped.
func runCompare(files []string, tol float64) error {
	baseline := make(map[cellKey]rtbench.Sample)
	wantScenario := make(map[string]bool)
	for _, f := range files {
		f = strings.TrimSpace(f)
		if f == "" {
			continue
		}
		buf, err := os.ReadFile(f)
		if err != nil {
			return err
		}
		var samples []rtbench.Sample
		if err := json.Unmarshal(buf, &samples); err != nil {
			return fmt.Errorf("%s: %v", f, err)
		}
		for _, s := range samples {
			baseline[cellKey{s.Scenario, s.Strategy}] = s
			wantScenario[s.Scenario] = true
		}
	}
	if len(baseline) == 0 {
		return fmt.Errorf("no baseline samples in %s", strings.Join(files, ","))
	}

	const maxAttempts = 3
	regressions := 0
	compared := make(map[cellKey]bool)
	for _, sc := range rtbench.Scenarios() {
		if !wantScenario[sc.Name] {
			continue
		}
		fmt.Fprintf(os.Stderr, "comparing %s (%d ports)...\n", sc.Name, sc.Ports())
		// failed holds the cells that have not passed in any attempt yet;
		// retries re-measure exactly those cells, not the whole scenario.
		var failed map[cellKey]string
		for attempt := 1; attempt <= maxAttempts; attempt++ {
			var samples []rtbench.Sample
			if attempt == 1 {
				samples = rtbench.RunScenario(sc)
			} else {
				for key := range failed {
					samples = append(samples, rtbench.Run(sc, key.Strategy))
				}
			}
			failed = make(map[cellKey]string)
			for _, s := range samples {
				key := cellKey{s.Scenario, s.Strategy}
				b, ok := baseline[key]
				if !ok {
					if attempt == 1 {
						fmt.Fprintf(os.Stderr, "  %-9s no baseline cell; skipped\n", s.Strategy)
					}
					continue
				}
				compared[key] = true
				verdict := compareCell(b, s, tol)
				nsNote := "ns not compared (GOMAXPROCS differs)"
				if s.GOMAXPROCS == b.GOMAXPROCS {
					nsNote = fmt.Sprintf("ns %+.1f%%", 100*(s.NsPerOp-b.NsPerOp)/b.NsPerOp)
				}
				fmt.Fprintf(os.Stderr, "  %-9s allocs %.3f -> %.3f, %s: %s\n",
					s.Strategy, b.AllocsPerOp, s.AllocsPerOp, nsNote, verdict)
				if verdict != "ok" {
					failed[key] = verdict
				}
			}
			if len(failed) == 0 {
				break
			}
			if attempt < maxAttempts {
				fmt.Fprintf(os.Stderr, "  %d cell(s) over budget; re-running %s (attempt %d/%d)\n",
					len(failed), sc.Name, attempt+1, maxAttempts)
			}
		}
		regressions += len(failed)
	}
	for key := range baseline {
		if !compared[key] {
			fmt.Fprintf(os.Stderr, "  baseline cell %s/%s not produced by this host; skipped\n",
				key.Scenario, key.Strategy)
		}
	}
	if len(compared) == 0 {
		// A gate that compares nothing must not pass: this catches renamed
		// scenarios (or stale baselines) silently disabling the check.
		return fmt.Errorf("no baseline cell was re-run (scenario names stale?)")
	}
	if regressions > 0 {
		return fmt.Errorf("%d cell(s) regressed vs baseline", regressions)
	}
	fmt.Fprintln(os.Stderr, "no regressions")
	return nil
}

// emitMarkdown prints the full EXPERIMENTS.md document: every experiment's
// tables and notes, fenced, with a trailer describing the runtime
// benchmark JSON files. It returns the number of failed experiments so a
// regression cannot silently land inside a regenerated document.
func emitMarkdown(all []experiments.Runner) (failed int) {
	fmt.Println("# EXPERIMENTS — paper-reproduction artifact tables")
	fmt.Println()
	fmt.Println("Generated by `go run ./cmd/rmebench -md > EXPERIMENTS.md`. Every")
	fmt.Println("experiment is deterministic (fixed seeds, fixed schedules), so this")
	fmt.Println("file is reproducible bit-for-bit; regenerate it whenever the")
	fmt.Println("simulator or the algorithms under it change. The RMR counts come")
	fmt.Println("from the internal/memsim cost model (CC and DSM), which is the")
	fmt.Println("paper's own metric — wall-clock performance of the runtime lock is")
	fmt.Println("benchmarked separately (see the trailer).")
	fmt.Println()
	for _, r := range all {
		res := r.Run()
		fmt.Printf("## %s: %s\n\n", res.ID, res.Title)
		fmt.Println("```")
		for _, tb := range res.Tables {
			fmt.Println(tb)
		}
		for _, n := range res.Notes {
			fmt.Printf("  %s\n", n)
		}
		if res.Err != nil {
			fmt.Printf("  FAILED: %v\n", res.Err)
			failed++
		}
		fmt.Println("```")
		fmt.Println()
	}
	fmt.Println("## E12+: runtime lock benchmarks")
	fmt.Println()
	fmt.Println("The runtime port's wall-clock numbers (ns/op, allocs/op, and the")
	fmt.Println("wait engine's RMR-proxy counters) are not reproduced here because")
	fmt.Println("they depend on the host. Generate them with:")
	fmt.Println()
	fmt.Println("    go run ./cmd/rmebench -json")
	fmt.Println()
	fmt.Println("which writes `BENCH_<scenario>.json` per workload shape")
	fmt.Println("(uncontended, contended8, oversubscribed for the flat lock;")
	fmt.Println("BENCH_tree.json for the arbitration tree, contended and")
	fmt.Println("oversubscribed, with per-level wake counters; BENCH_keyed.json")
	fmt.Println("for the keyed LockTable under uniform and zipf key traffic;")
	fmt.Println("BENCH_keyed_async.json for the table's asynchronous pipeline —")
	fmt.Println("keyed_async is the LockAsync completion passage;")
	fmt.Println("BENCH_keyed_pooled.json for the shared dispatcher runtime at")
	fmt.Println("many-stripe scale — keyed_manyshards runs the same async")
	fmt.Println("pipeline over a 512-stripe × 16-port arena with the executor")
	fmt.Println("pool pinned to 8 workers (WithDispatcherPool), and each cell's")
	fmt.Println("`goroutines` field records the live goroutine count after the")
	fmt.Println("measured pass: a pool-sized figure on a 512-stripe table, which")
	fmt.Println("is the bounded-footprint claim committed as a number (the old")
	fmt.Println("per-stripe dispatcher design would have parked 512 goroutines")
	fmt.Println("before the first request moved); the cell is alloc-exempt")
	fmt.Println("because an arena that large fills its 8192 per-port wait-node")
	fmt.Println("pools lazily across the whole run — run-queue scheduling")
	fmt.Println("itself allocates nothing, which the keyed_async gate pins at")
	fmt.Println("0.000 — so the gate pins its ns/op; and the")
	fmt.Println("keyed_hot8 / keyed_batch pair prices one stripe's keys locked")
	fmt.Println("one-by-one against the same groups under DoBatch, per-key ns/op")
	fmt.Println("in both so the batch amortization factor reads directly off the")
	fmt.Println("file (≥2x on the committed baselines);")
	fmt.Println("BENCH_keyed_tree.json and BENCH_keyed_mcs.json for the")
	fmt.Println("three-way shard-backend showdown — keyed_hiport, keyed_tree,")
	fmt.Println("and keyed_mcs run one identical 64-port-per-stripe workload on")
	fmt.Println("flat, arbitration-tree, and recoverable-MCS shards, so the")
	fmt.Println("tree's per-level handoff cost and the MCS queue's single-wake")
	fmt.Println("O(1) handoff at big k are committed numbers (on the committed")
	fmt.Println("run the tree pays ~4x flat's wakes per passage while MCS stays")
	fmt.Println("at ~1 wake per passage, below flat's broadcast); plus")
	fmt.Println("BENCH_keyed_crash.json for the table under a deterministic")
	fmt.Println("crash mix, kept out of the allocation gate because recovery")
	fmt.Println("allocations are schedule-dependent;")
	fmt.Println("and BENCH_syscrash.json for the system-wide crash tier —")
	fmt.Println("keyed_syscrash and keyed_syscrash_1m each measure whole")
	fmt.Println("crash/checkpoint/restore rounds at 1e5- and 1e6-key scale, with")
	fmt.Println("ns/op defined as time-to-first-grant after the crash and the")
	fmt.Println("full-heal time and checkpoint size recorded alongside; the cells")
	fmt.Println("are alloc-exempt, so the gate pins recovery latency, not the")
	fmt.Println("restore's by-design arena construction) across the wait-strategy")
	fmt.Println("axis. With the generation-stamped wait engine, recycled flat and")
	fmt.Println("tree queue nodes, and MCS's permanent per-port nodes, every")
	fmt.Println("crash-free passage — flat, tree, MCS, or keyed, sync, async, or")
	fmt.Println("batched, contended or not, under any strategy — is")
	fmt.Println("allocation-free, and")
	fmt.Println()
	fmt.Println("    go run ./cmd/rmebench -compare BENCH_<scenario>.json")
	fmt.Println()
	fmt.Println("re-runs the recorded scenarios and exits non-zero if allocs/op")
	fmt.Println("rose at all or ns/op rose past the -tol threshold on a comparable")
	fmt.Println("host (CI runs this as a smoke gate). `go test -bench . -benchmem`")
	fmt.Println("runs the same workloads as standard Go benchmarks (E12–E18).")
	fmt.Println()
	fmt.Println("The syscrash cells are worth reading against the successor paper's")
	fmt.Println("claim (constant-RMR recoverable mutual exclusion under system-wide")
	fmt.Println("crashes in O(1) persistent space per process): what Checkpoint")
	fmt.Println("persists is exactly the arena — one lease word, key, and CS bit per")
	fmt.Println("port — and nothing per process, waiter, or request, so the committed")
	fmt.Println("image grows only with shards×ports and not with the keyspace (the")
	fmt.Println("1e6-key cell's image is bigger than the 1e5-key cell's only because")
	fmt.Println("its arena is 8x larger; another decade of keys at the same arena")
	fmt.Println("would cost zero additional bytes). Recovery time after the crash")
	fmt.Println("tracks the number of dead tenancies, not the keyspace either:")
	fmt.Println("time-to-first-grant and full-heal land within a few percent of each")
	fmt.Println("other on the committed run because the two-phase sweep recovers the")
	fmt.Println("dead stripes concurrently, which is the library-level analogue of")
	fmt.Println("the paper's per-process O(1) recovery work.")
	return failed
}
