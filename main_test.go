package rme_test

import (
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"
)

// goroutineSettle bounds how long the suite's goroutines may take to wind
// down after the last test. Close does not join the dispatcher workers (a
// worker can be blocked behind a grant held by Close's own caller), so a
// closed table's workers exit shortly after it, not at once.
const goroutineSettle = 3 * time.Second

// TestMain fails the run when goroutines outlive the suite: every test must
// Close the tables it builds and join the goroutines it starts.
func TestMain(m *testing.M) {
	before := runtime.NumGoroutine()
	code := m.Run()
	if code == 0 {
		if err := settleGoroutines(before, goroutineSettle); err != nil {
			fmt.Fprintln(os.Stderr, err)
			code = 1
		}
	}
	os.Exit(code)
}

// settleGoroutines waits up to d for the goroutine count to fall back to
// want, and otherwise reports the survivors with a full goroutine dump.
func settleGoroutines(want int, d time.Duration) error {
	deadline := time.Now().Add(d)
	for {
		n := runtime.NumGoroutine()
		if n <= want {
			return nil
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			buf = buf[:runtime.Stack(buf, true)]
			return fmt.Errorf("goroutine leak: %d goroutines %v after the suite, %d before it\n%s",
				n, d, want, buf)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
