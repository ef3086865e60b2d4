package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
	"time"
)

// childEnv makes the test binary run the held-key scenario instead of the
// tests, so the watchdog test can observe a real process exit.
const childEnv = "RME_BENCH_WATCHDOG_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		cfg := defaultConfig(workloadByName("hotspot"), 1, 5*time.Second)
		cfg.stall, cfg.hold = time.Second, true
		benchmark(cfg)
		os.Exit(0) // reached only if the watchdog did not fire
	}
	os.Exit(m.Run())
}

type spec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return s
}

// TestSmoke runs every workload briefly in both modes and checks that the
// run is clean and prints exactly the metrics BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(s.Workloads), len(workloads))
	}
	for _, sw := range s.Workloads {
		w := workloadByName(sw.Name)
		if w == nil {
			t.Fatalf("BENCHMARK.json workload %q is not implemented", sw.Name)
		}
		for _, trace := range []bool{false, true} {
			cfg := defaultConfig(w, 7, 600*time.Millisecond)
			cfg.trace = trace
			want := s.EndToEnd
			if trace {
				cfg.window = 2 * time.Second
				want = s.PerLayer
			}
			res, _ := benchmark(cfg)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d", w.name, trace, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", w.name, trace, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v), want unit %s", w.name, trace, m.Name, got, ok, m.Unit)
				}
			}
		}
	}
}

// TestWatchdogFiresOnHeldKey holds the hot stripe's key forever and checks
// that the run ends with a stall failure and a goroutine dump, not a hang.
func TestWatchdogFiresOnHeldKey(t *testing.T) {
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe, "-test.run=^$", "-test.timeout=60s")
	cmd.Env = append(os.Environ(), childEnv+"=1")
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	err = cmd.Run()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != exitStall {
		t.Fatalf("held key: run ended with %v, want exit status %d\nstderr:\n%s", err, exitStall, stderr.String())
	}
	for _, want := range []string{"workload hotspot stalled", "goroutine 1 [", "(*client).run"} {
		if !strings.Contains(stderr.String(), want) {
			t.Errorf("stall report lacks %q:\n%s", want, stderr.String())
		}
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last stdout line is not a result: %v", err)
	}
	if res.Correct || res.Failed == 0 {
		t.Errorf("stalled run reported correct=%v failed=%d", res.Correct, res.Failed)
	}
}
