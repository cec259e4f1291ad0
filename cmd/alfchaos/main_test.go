package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestMain lets a test run the command itself: with ALFCHAOS_MAIN set,
// the test binary is alfchaos, flags, output and exit status and all.
func TestMain(m *testing.M) {
	if os.Getenv("ALFCHAOS_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestGolden pins the three seeded soak families' sweeps and one single
// run of each (summary, verdict and metric tree): each must exit 0 and
// print exactly what it printed before.
// Regenerate deliberately with `go test ./cmd/alfchaos -update`.
func TestGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"all", []string{"-all"}},
		{"overload_all", []string{"-overload", "-all"}},
		{"dtn_all", []string{"-dtn", "-all"}},
		{"blackout", []string{"-scenario", "blackout"}},
		{"overload_burst", []string{"-overload", "-shape", "burst"}},
		{"dtn", []string{"-dtn"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], tc.args...)
			cmd.Env = append(os.Environ(), "ALFCHAOS_MAIN=1")
			got, err := cmd.Output()
			if err != nil {
				t.Fatalf("alfchaos %v: %v\n%s", tc.args, err, got)
			}
			path := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run `go test ./cmd/alfchaos -update` to create)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
			}
		})
	}
}

// TestTraceEveryFamily: -trace records a single run of each family and
// leaves a Perfetto file with events in it.
func TestTraceEveryFamily(t *testing.T) {
	for _, family := range [][]string{nil, {"-overload"}, {"-dtn"}} {
		path := filepath.Join(t.TempDir(), "trace.json")
		args := append([]string{"-tree=false", "-trace", path}, family...)
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), "ALFCHAOS_MAIN=1")
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("alfchaos %v: %v\n%s", args, err, out)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("alfchaos %v: %v", args, err)
		}
		var trace struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
		}
		if err := json.Unmarshal(raw, &trace); err != nil {
			t.Fatalf("alfchaos %v: trace is not JSON: %v", args, err)
		}
		if len(trace.TraceEvents) == 0 {
			t.Errorf("alfchaos %v: trace holds no events", args)
		}
	}
}
