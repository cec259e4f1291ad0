package main

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden file")

// TestMain lets a test run the example itself: with EXAMPLE_MAIN set,
// the test binary is the example.
func TestMain(m *testing.M) {
	if os.Getenv("EXAMPLE_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestGolden pins the example's output, which is computed on the
// virtual clock alone: a change underneath that moves any of it shows
// here. Regenerate deliberately with `go test ./examples/... -update`.
func TestGolden(t *testing.T) {
	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "EXAMPLE_MAIN=1")
	got, err := cmd.Output()
	if err != nil {
		t.Fatalf("example: %v\n%s", err, got)
	}
	path := filepath.Join("testdata", "output.golden")
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
		t.Fatalf("%v (run `go test ./examples/... -update` to create)", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output differs from %s:\n--- got ---\n%s\n--- want ---\n%s", path, got, want)
	}
}
