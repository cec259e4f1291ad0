package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite testdata/*.split from the fixtures")

// The table pinned against three checked-in `pprof -top -noinlines`
// fixtures, core's cleartext and AEAD steady-state benches and the soak
// family's loopback bench: each must split exactly as its .split file
// says (rerun with -update after a deliberate change to the table, and
// say why in the change). The seconds behind each split sum to the profile's total.
func TestSplitFixtures(t *testing.T) {
	for _, name := range []string{"clear", "aead", "udp"} {
		in, err := os.ReadFile(filepath.Join("testdata", name+".top"))
		if err != nil {
			t.Fatal(err)
		}
		by, total, err := split(bytes.NewReader(in))
		if err != nil {
			t.Fatal(err)
		}
		var sum time.Duration
		for _, b := range buckets {
			sum += by[b]
		}
		if sum != total || len(by) > len(buckets) {
			t.Errorf("%s: buckets hold %v of %v, in %d buckets", name, sum, total, len(by))
		}
		var got bytes.Buffer
		render(&got, by, total)
		golden := filepath.Join("testdata", name+".split")
		if *update {
			if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		want, err := os.ReadFile(golden)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Errorf("%s splits as\n%s\nwant\n%s", name, got.Bytes(), want)
		}
	}
}

// Leaves of the datapath land where the table says, names with spaces
// included; anything it does not name is "other".
func TestClassify(t *testing.T) {
	for fn, want := range map[string]string{
		"repro/internal/cipher.keystream16ifma":                        "keystream kernel",
		"repro/internal/cipher.keystream16mac":                         "keystream kernel",
		"repro/internal/cipher.keystream8mac":                          "keystream kernel",
		"repro/internal/cipher.absorb":                                 "keystream kernel",
		"repro/internal/cipher.keystream8":                             "keystream kernel",
		"repro/internal/cipher.xorWide":                                "keystream kernel",
		"repro/internal/cipher.Blocks":                                 "keystream kernel",
		"repro/internal/cipher.(*MAC).block":                           "Poly1305 in Go",
		"repro/internal/cipher.(*Chain).finish":                        "Poly1305 in Go",
		"repro/internal/cipher.(*Chain).MAC":                           "Poly1305 in Go",
		"repro/internal/cipher.(*MAC).Init":                            "Poly1305 in Go",
		"repro/internal/cipher.Block":                                  "tag key / Block",
		"repro/internal/cipher.xor3":                                   "XOR",
		"crypto/internal/fips140/subtle.xorBytes":                      "XOR",
		"crypto/subtle.XORBytes":                                       "XOR",
		"repro/internal/ilp.XORWords":                                  "XOR",
		"repro/internal/ilp.FusedCopySum":                              "checksum + copy",
		"repro/internal/checksum.copySumAVX2":                          "checksum + copy",
		"repro/internal/checksum.sumAVX2":                              "checksum + copy",
		"repro/internal/checksum.copyAVX2":                             "checksum + copy",
		"runtime.memmove":                                              "checksum + copy",
		"repro/internal/ilp.FusedSeal":                                 "packetize / placement",
		"repro/internal/core.(*window[go.shape.struct { p *int }]).at": "packetize / placement",
		"repro/internal/buf.(*Pool).GetHeadroom":                       "pool",
		"repro/internal/netsim.deliverCB":                              "scheduler",
		"repro/internal/netsim.onDepart":                               "scheduler",
		"repro/internal/udplink.(*mmsgIO).send":                        "syscall / udplink",
		"internal/runtime/syscall.Syscall6":                            "syscall / udplink",
		"syscall.RawSyscall6":                                          "syscall / udplink",
		"internal/poll.(*FD).RawRead":                                  "syscall / udplink",
		"repro/internal/faults/soak.aduPayload":                        "soak harness",
		"repro/internal/faults/soak.RunUDP.func1":                      "soak harness",
		"internal/runtime/maps.(*Map).Clear":                           "runtime + GC",
		"runtime.mallocgc":                                             "runtime + GC",
		"testing.(*B).runN":                                            "other",
	} {
		if got := classify(fn); got != want {
			t.Errorf("%s: %q, want %q", fn, got, want)
		}
	}
}

// Input that is not pprof -top output is an error, not an empty split.
func TestSplitRejectsOtherInput(t *testing.T) {
	if _, _, err := split(bytes.NewReader([]byte("flat flat% sum% cum cum%\n"))); err == nil {
		t.Fatal("no error without a total")
	}
}

// A profile too short to hold a sample splits into nothing, without an
// error, so `make split` goes on to the next benchmark.
func TestSplitEmptyProfile(t *testing.T) {
	in := "File: core.test\nType: cpu\nDuration: 200.91ms, Total samples = 0 \n" +
		"Showing nodes accounting for 0, 0% of 0 total\n      flat  flat%   sum%        cum   cum%\n"
	by, total, err := split(bytes.NewReader([]byte(in)))
	if err != nil || total != 0 {
		t.Fatalf("split = %v, %v; want a zero total and no error", total, err)
	}
	var got bytes.Buffer
	render(&got, by, total)
	if want := "no samples: the run was too short to profile\n"; got.String() != want {
		t.Errorf("renders %q, want %q", got.String(), want)
	}
}
