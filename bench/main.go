// Command bench is the repository benchmark: a closed-loop load generator
// for the keyed lock table that runs in one process, with GOMAXPROCS and
// the client count both set to the number of CPUs. Build and run it with
//
//	python3 bench/run.py --workload spread --seed 1 --seconds 30 --trace 0
//
// from the repository root. With --trace 0 it measures the end-to-end
// metrics; with --trace 1 it measures the per-layer ones: an untraced and
// a traced window of the workload, then the layer ladder replaying the
// workload's stripe stream. The last line of standard output is the result
// JSON; the line before it records the run's metadata. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"
)

type config struct {
	w       *workload
	seed    uint64
	window  time.Duration // the measured window (--seconds)
	trace   bool
	clients int
	stall   time.Duration // the watchdog's no-progress limit
	// hold, for the watchdog self-test only, locks one hot key before the
	// clients start and never releases it.
	hold bool
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(cli(os.Args[1:], os.Stdout)) }

func cli(args []string, out io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: spread, hotspot or crash")
	seed := fs.Uint64("seed", 1, "seed of the key streams and the crash schedule")
	seconds := fs.Int("seconds", 30, "length of the measured window")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := workloadByName(*name)
	if w == nil || *seconds < 1 || *trace < 0 || *trace > 1 || fs.NArg() != 0 {
		warnf("usage: --workload spread|hotspot|crash [--seed n] [--seconds n] [--trace 0|1]")
		return 2
	}
	cfg := defaultConfig(w, *seed, time.Duration(*seconds)*time.Second)
	cfg.trace = *trace == 1
	res, meta := benchmark(cfg)
	emit(out, meta, res)
	return 0
}

// defaultConfig sets GOMAXPROCS and the client count both to the number of
// CPUs.
func defaultConfig(w *workload, seed uint64, window time.Duration) *config {
	n := runtime.NumCPU()
	runtime.GOMAXPROCS(n)
	return &config{w: w, seed: seed, window: window, clients: n, stall: 10 * time.Second}
}

// emit prints the metadata line (if any) and then the result line.
func emit(out io.Writer, meta map[string]any, res result) {
	if meta != nil {
		b, _ := json.Marshal(map[string]any{"meta": meta}) // plain maps of numbers and strings always marshal
		fmt.Fprintln(out, string(b))
	}
	b, _ := json.Marshal(res)
	fmt.Fprintln(out, string(b))
}

func warmFor(window time.Duration) time.Duration { return window / 10 }

const (
	// setup_s is the median of at least minSetups set-ups, and of more,
	// up to maxSetups, while they have taken less than setupBudget.
	minSetups   = 7
	maxSetups   = 31
	setupBudget = 500 * time.Millisecond
	// sessions is how many fresh tables the end-to-end window is split
	// over.
	sessions = 4
)

func benchmark(cfg *config) (result, map[string]any) {
	fails := &failLog{}
	m := map[string]metric{}
	set := func(name, unit string, v float64) { m[name] = metric{Value: v, Unit: unit} }
	meta := map[string]any{
		"workload": cfg.w.name, "seed": cfg.seed, "seconds": cfg.window.Seconds(), "trace": cfg.trace,
		"gomaxprocs": runtime.GOMAXPROCS(0), "clients": cfg.clients, "go_version": runtime.Version(),
		"shards": cfg.w.shards, "ports": cfg.w.ports, "table_seed": uint64(tableSeed),
		"cs_iters": cfg.w.cs, "think_iters": cfg.w.think, "sessions": sessions,
	}
	samples := map[string]uint64{}
	meta["samples"] = samples
	var attempted uint64

	if cfg.trace {
		var rings [][]op
		attempted, rings = traced(cfg, fails, set, samples)
		newLadder(cfg, fails, rings).run(m, samples)
	} else {
		attempted = endToEnd(cfg, fails, set, samples)
	}
	failed := fails.count()
	for _, msg := range fails.msgs {
		warnf("FAIL %s", msg)
	}
	return result{Correct: failed == 0, Attempted: max(attempted, 1), Failed: failed, Metrics: m}, meta
}

// endToEnd sets the end-to-end metrics and returns the passages attempted
// in the measured windows. The window is split over several sessions,
// each on a fresh table, and every latency and throughput figure is the
// median over the slices of all of them, so that neither one table's
// memory layout nor one stretch of load on the host sets it.
func endToEnd(cfg *config, fails *failLog, set func(name, unit string, v float64), samples map[string]uint64) uint64 {
	var setups []float64
	var spent time.Duration
	for len(setups) < minSetups || spent < setupBudget && len(setups) < maxSetups {
		runtime.GC()
		t := time.Now()
		s := newSession(cfg.w, cfg, fails, false)
		d := time.Since(t)
		s.close()
		spent += d
		setups = append(setups, d.Seconds())
	}
	var all window
	var heaps []float64
	var attempted uint64
	part := cfg.window / sessions
	for k := 0; k < sessions; k++ {
		s := newSession(cfg.w, cfg, fails, false)
		if cfg.hold {
			s.tbl.Lock(s.clients[0].ring[0].k1)
		}
		w := s.run(warmFor(part), part)
		s.close()
		for _, c := range s.clients {
			attempted += c.measured
		}
		all.rates = append(all.rates, w.rates...)
		all.acq50 = append(all.acq50, w.acq50...)
		all.acq99 = append(all.acq99, w.acq99...)
		all.rel99 = append(all.rel99, w.rel99...)
		all.acqN += w.acqN
		all.relN += w.relN
		all.mallocs += w.mallocs
		all.passages += w.passages
		heaps = append(heaps, float64(w.heap))
	}
	set("setup_s", "s", median(setups))
	set("passages_per_s", "1/s", median(all.rates))
	set("acquire_p50_us", "us", median(all.acq50)/1e3)
	set("acquire_p99_us", "us", median(all.acq99)/1e3)
	set("release_p99_us", "us", median(all.rel99)/1e3)
	set("allocs_per_passage", "count", float64(all.mallocs)/float64(max(all.passages, 1)))
	set("heap_mb", "MB", median(heaps)/1e6)
	samples["acquire"], samples["release"], samples["setup"] = all.acqN, all.relN, uint64(len(setups))
	samples["throughput_slices"], samples["latency_slices"] = uint64(len(all.rates)), uint64(len(all.acq50))
	return attempted
}

// traced runs an untraced and then a traced window of the workload, each
// on its own table, and sets the per-layer metrics they yield. It returns
// the passages attempted in both measured windows and the clients' op
// rings, for the ladder to replay.
func traced(cfg *config, fails *failLog, set func(name, unit string, v float64), samples map[string]uint64) (uint64, [][]op) {
	part := cfg.window / 4
	u := newSession(cfg.w, cfg, fails, false)
	wu := u.run(warmFor(part), part)
	u.close()
	t := newSession(cfg.w, cfg, fails, true)
	wt := t.run(warmFor(part), part)
	t.close()

	var attempted uint64
	var rings [][]op
	rec := new(hist)
	var c counts // summed over the traced window's clients
	for _, cl := range u.clients {
		attempted += cl.measured
		rec.merge(cl.rec)
	}
	for _, cl := range t.clients {
		rings = append(rings, cl.ring)
		attempted += cl.measured
		c.add(cl.counts)
	}

	d0, d1 := wt.stats0, wt.stats1
	acq := d1.Acquires - d0.Acquires
	set("wait.wakes_per_acquire", "count", ratio(d1.Wakes-d0.Wakes, acq))
	set("wait.sleeps_per_acquire", "count", ratio(d1.Sleeps-d0.Sleeps, acq))
	set("wait.parks_per_acquire", "count", ratio(d1.Parks-d0.Parks, acq))
	set("wait.spin_rounds_per_acquire", "count", ratio(d1.SpinRounds-d0.SpinRounds, acq))

	hs := spanHists(t.clients)
	for _, sp := range []struct {
		name string
		span spanName
		q    float64
		us   bool
	}{
		{"locktable.lock_p50_ns", spLock, 0.5, false},
		{"locktable.lock_p99_ns", spLock, 0.99, false},
		{"locktable.unlock_p50_ns", spUnlock, 0.5, false},
		{"locktable.unlock_p99_ns", spUnlock, 0.99, false},
		{"locktable.lockcontext_p50_ns", spLockContext, 0.5, false},
		{"locktable.trylock_p50_ns", spTryLock, 0.5, false},
		{"locktable.reclaim_p50_us", spReclaim, 0.5, true},
		{"locktable.reclaim_p99_us", spReclaim, 0.99, true},
		{"locktable_batch.lock_p50_ns", spLockBatch, 0.5, false},
		{"locktable_batch.unlock_p50_ns", spBatchUnlock, 0.5, false},
	} {
		if sp.us {
			set(sp.name, "us", hs[sp.span].quantile(sp.q)/1e3)
		} else {
			set(sp.name, "ns", hs[sp.span].quantile(sp.q))
		}
	}
	for i, h := range hs {
		samples["span."+spanLabels[i]] = h.n
	}
	set("locktable.trylock_hit_ratio", "ratio", ratio(c.tryHits, c.tryAttempts))
	set("locktable.reclaim_useful_ratio", "ratio", ratio(c.usefulSweeps, c.reclaims))
	set("locktable.retries_per_crash", "ratio", ratio(c.retries, t.fired.Load()))
	set("locktable_batch.stripes_per_batch", "count", ratio(c.batchStripes, c.batches))
	set("crash.recovery_p50_us", "us", rec.quantile(0.5)/1e3)
	set("crash.recovery_p99_us", "us", rec.quantile(0.99)/1e3)
	samples["recovery"] = rec.n

	rate := func(w window) float64 { return float64(w.passages) / w.elapsed.Seconds() }
	set("trace.overhead_frac", "ratio", 1-rate(wt)/rate(wu))
	return attempted, rings
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}
