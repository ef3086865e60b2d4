// Oversubscribed: many more ports than processors, tuned with the
// wait-strategy option. 32·GOMAXPROCS workers hammer one lock under the
// spin-then-park strategy — the workload where spinning waiters would
// otherwise starve the one goroutine able to make progress — with queue
// nodes recycled so steady-state passages allocate nothing.
//
//	go run ./examples/oversubscribed
package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	rme "github.com/rmelib/rme"
)

func main() {
	procs := runtime.GOMAXPROCS(0)
	ports := 32 * procs
	const iters = 200

	m := rme.New(ports,
		rme.WithWaitStrategy(rme.SpinParkWaitStrategy(32)))

	counter := 0 // protected by m
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < ports; w++ {
		wg.Add(1)
		go func(port int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				m.Lock(port)
				counter++
				m.Unlock(port)
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	fmt.Printf("%d ports on %d procs (%d× oversubscribed)\n", ports, procs, ports/procs)
	fmt.Printf("counter = %d (want %d)\n", counter, ports*iters)
	fmt.Printf("%d passages in %v (%.0f ns/passage)\n",
		ports*iters, elapsed.Round(time.Millisecond),
		float64(elapsed.Nanoseconds())/float64(ports*iters))
}
