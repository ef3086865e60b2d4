package main

import (
	"os"
	"runtime/pprof"
	"time"
)

// exitStall is the exit status of a run the watchdog ended.
const exitStall = 3

// watch runs a stall watchdog over progress until the returned stop
// function is called. If progress does not move for cfg.stall, the
// watchdog writes every goroutine's stack to standard error, reports the
// stall as a failed run naming the workload, and exits with exitStall: a
// wedge becomes a failure with evidence instead of a hung run.
func watch(cfg *config, name string, progress func() uint64) (stop func()) {
	done, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		tick := time.NewTicker(cfg.stall / 10)
		defer tick.Stop()
		last, since := progress(), time.Now()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
			}
			if p := progress(); p != last {
				last, since = p, time.Now()
			} else if time.Since(since) >= cfg.stall {
				warnf("workload %s stalled: no passage completed in %v; goroutine dump follows", name, cfg.stall)
				_ = pprof.Lookup("goroutine").WriteTo(os.Stderr, 2) // best effort: the run is failing anyway
				emit(os.Stdout, nil, result{Attempted: p + 1, Failed: 1, Metrics: map[string]metric{}})
				os.Exit(exitStall)
			}
		}
	}()
	return func() {
		close(done)
		<-exited
	}
}
