package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files")

// TestMain lets a test run the command itself: with ALFSTAT_MAIN set,
// the test binary is alfstat, flags and all.
func TestMain(m *testing.M) {
	if os.Getenv("ALFSTAT_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestGolden pins the metric tree of a seeded run without the
// wall-clock kernels, alone and with the flight recorder's sparklines
// for the delivered series: every metric row, histogram summary and
// timeline must print exactly what it printed before. Regenerate
// deliberately with `go test ./cmd/alfstat -update`.
func TestGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"tree", []string{"-kernels=false"}},
		{"series_delivered", []string{"-kernels=false", "-series", "delivered"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(os.Args[0], tc.args...)
			cmd.Env = append(os.Environ(), "ALFSTAT_MAIN=1")
			got, err := cmd.Output()
			if err != nil {
				t.Fatalf("alfstat %v: %v\n%s", tc.args, err, got)
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
				t.Fatalf("%v (run `go test ./cmd/alfstat -update` to create)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
			}
		})
	}
}
