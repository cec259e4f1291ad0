// Command alfsplit splits a CPU profile of the datapath into cost
// buckets: it reads `go tool pprof -top` output on standard input, puts
// each function's flat time — the samples whose leaf it is — in the
// bucket of the first row of one table that matches its name, and
// prints each bucket's share of the profile's total. Time pprof did not
// list (a -nodefraction cut) is "other", so the shares sum to 100 %.
// One table is the point: a split is comparable with another split only
// if both put the same leaves in the same buckets.
//
// Usage:
//
//	go tool pprof -top -noinlines -nodefraction=0 core.test cpu.prof | alfsplit
//
// -noinlines charges an inlined function's samples to the function it
// was inlined into, which is the one the table names. `make split` runs
// this on core's BenchmarkSendSteadyState{,AEAD}, faults/soak's
// BenchmarkUDPLoopback and the root package's
// BenchmarkFlowScale/workers=2.
package main

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"regexp"
	"strings"
	"time"
)

// buckets, in the order they are printed.
var buckets = []string{
	"keystream kernel",
	"Poly1305 in Go",
	"tag key / Block",
	"XOR",
	"checksum + copy",
	"packetize / placement",
	"pool",
	"scheduler",
	"syscall / udplink",
	"soak harness",
	"runtime + GC",
	"other",
}

// table maps a leaf function to its bucket; the first matching row wins,
// and a leaf no row matches is "other".
var table = []struct {
	re     *regexp.Regexp
	bucket string
}{
	// The AVX-512 kernels, with the fold on IFMA or on the integer ports,
	// and the AVX2 one (keystream8 before the AVX2 one folded Poly1305
	// too), which XOR the payload's whole blocks and fold every
	// whole MAC block they are handed, the Go that picks one and walks
	// the chunks, absorb, which folds a seal's last chunk in a fold-only
	// call, and Blocks, which makes one-off blocks (tag keys, heads) in
	// its lanes. Without a kernel (-tags purego, other GOARCH) the
	// keystream is made by Block and lands in "tag key / Block", and every
	// MAC block in "Poly1305 in Go", as do keying a MAC and a chain
	// handing one out.
	{regexp.MustCompile(`^repro/internal/cipher\.(keystream16ifma|keystream16mac|keystream8mac|keystream8|keystream|xorWide|absorb|Blocks)$`), "keystream kernel"},
	{regexp.MustCompile(`^repro/internal/cipher\.(\(\*MAC\)\.|\(\*Chain\)\.|NewMAC$)`), "Poly1305 in Go"},
	{regexp.MustCompile(`^repro/internal/cipher\.(Block|TagKey)$`), "tag key / Block"},
	// The keystream XOR is the standard library's (cipher.xor3 before it).
	{regexp.MustCompile(`^repro/internal/(cipher\.xor3|ilp\.XORWords)$|^crypto/(internal/fips140/)?subtle\.`), "XOR"},
	{regexp.MustCompile(`^repro/internal/(checksum\.|ilp\.(FusedCopySum|WordCopy|FinishSum|Fold)$)|^runtime\.(memmove|duffcopy|duffzero|memclrNoHeapPointers|typedslicecopy)$`), "checksum + copy"},
	{regexp.MustCompile(`^repro/internal/(core|wire|ilp)\.`), "packetize / placement"},
	{regexp.MustCompile(`^repro/internal/buf\.`), "pool"},
	{regexp.MustCompile(`^repro/internal/(sim|netsim)\.`), "scheduler"},
	// A real socket: udplink's loop and readers, and the system calls
	// under them (syscall, the poller, the runtime's raw Syscall6).
	{regexp.MustCompile(`^repro/internal/udplink\.|^(syscall|internal/poll|internal/runtime/syscall|net)\.`), "syscall / udplink"},
	// The soak family driving a transfer: its payload pattern and the
	// ledger's byte-for-byte check of every delivery.
	{regexp.MustCompile(`^repro/internal/faults/soak\.`), "soak harness"},
	{regexp.MustCompile(`^(runtime|internal/runtime/[a-z]+|internal/chacha8rand|internal/sync|sync|sync/atomic)\.|^(aeshashbody|gogo)$`), "runtime + GC"},
}

func classify(fn string) string {
	for _, row := range table {
		if row.re.MatchString(fn) {
			return row.bucket
		}
	}
	return "other"
}

// totalLine is pprof's "Showing nodes accounting for X, Y% of Z total";
// Z is a bare 0 when the profile holds no samples.
var totalLine = regexp.MustCompile(`of ([0-9.]+[a-zµ]*) total`)

// split reads pprof -top text and returns each bucket's flat time and
// the profile's total.
func split(r io.Reader) (map[string]time.Duration, time.Duration, error) {
	by := make(map[string]time.Duration)
	var total, listed time.Duration
	found := false
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if m := totalLine.FindStringSubmatch(line); m != nil {
			d, err := time.ParseDuration(m[1])
			if err != nil {
				return nil, 0, fmt.Errorf("total %q: %v", m[1], err)
			}
			total, found = d, true
			continue
		}
		// flat flat% sum% cum cum% name, where name may hold spaces.
		f := strings.Fields(line)
		if len(f) < 6 || !strings.HasSuffix(f[1], "%") {
			continue
		}
		flat, err := time.ParseDuration(f[0])
		if err != nil {
			continue // the column header
		}
		by[classify(strings.Join(f[5:], " "))] += flat
		listed += flat
	}
	if err := sc.Err(); err != nil {
		return nil, 0, err
	}
	if !found {
		return nil, 0, fmt.Errorf("no %q line: not pprof -top output", "of … total")
	}
	by["other"] += total - listed
	return by, total, nil
}

// render prints one row per bucket and the total, with shares rounded
// to tenths of a percent so that the printed column sums to 100.0: each
// bucket gets its share rounded down, and the tenths still missing go
// to the buckets that lost most to rounding. A profile with no samples
// (a run too short for one) has no shares, and says so.
func render(w io.Writer, by map[string]time.Duration, total time.Duration) {
	if total == 0 {
		fmt.Fprintln(w, "no samples: the run was too short to profile")
		return
	}
	tenths := make([]int64, len(buckets))
	left := int64(1000)
	for i, b := range buckets {
		tenths[i] = int64(by[b]) * 1000 / int64(total)
		left -= tenths[i]
	}
	for ; left > 0; left-- {
		best, most := 0, int64(-1)
		for i, b := range buckets {
			if r := int64(by[b])*1000 - tenths[i]*int64(total); r > most {
				best, most = i, r
			}
		}
		tenths[best]++
	}
	for i, b := range buckets {
		fmt.Fprintf(w, "%-24s %10v %6.1f%%\n", b, by[b], float64(tenths[i])/10)
	}
	fmt.Fprintf(w, "%-24s %10v %6.1f%%\n", "total", total, 100.0)
}

func main() {
	by, total, err := split(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "alfsplit:", err)
		os.Exit(1)
	}
	render(os.Stdout, by, total)
}
