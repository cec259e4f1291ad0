//go:build mutants

package repro

import (
	"bytes"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// The mutant catalogue: each row is one edit of the source that a
// named test must notice. TestMutants copies the module into a
// temporary directory, checks that the row's old text is in its file
// exactly once (code that moves takes its row with it), makes the edit
// and runs the row's tests there; the row fails if they pass, or if the
// edit does not build, since a mutant that does not compile proves
// nothing. A row whose edit is in an assembly kernel this CPU lacks is
// skipped, by name. `make mutants` runs the table.
type mutant struct {
	name     string
	file     string // relative to the module root
	old, new string
	pkg, run string // what go test runs: the package and its -run pattern
	tags     string // -tags, if any
	goarch   string // GOARCH, if not the host's
	cpu      string // the /proc/cpuinfo flag the edited kernel needs
}

var mutants = []mutant{
	// The IFMA fold (keystream16ifma).
	{name: "ifma lane weighted r^(9-j)", file: "internal/cipher/wide_amd64.s",
		old: "DATA last<>+0(SB)/8, $0x080009010A020B03", new: "DATA last<>+0(SB)/8, $0x080009010A030B03",
		pkg: "./internal/cipher", run: "^TestKeystreamMACMatchesBlock$", cpu: "avx512ifma"},
	{name: "ifma normalisation carry dropped", file: "internal/cipher/wide_amd64.s",
		old: "VPANDQ.BCST mask44<>(SB), Z16, Z16; VPADDQ Z30, Z17, Z17", new: "VPANDQ.BCST mask44<>(SB), Z16, Z16",
		pkg: "./internal/cipher", run: "^TestKeystreamMACMatchesBlock$", cpu: "avx512ifma"},
	{name: "ifma lane without its 2^128 bit", file: "internal/cipher/wide_amd64.s",
		old: "KXNORW K1, K1, K1", new: "MOVL $0xF7, BX; KMOVW BX, K1",
		pkg: "./internal/cipher", run: "^TestKeystreamMACMatchesBlock$", cpu: "avx512ifma"},
	// The sixteen-lane rounds both AVX-512 kernels share.
	{name: "rotate by 11 for 12", file: "internal/cipher/wide_amd64.s",
		old: "VPROLD $12, B, B", new: "VPROLD $11, B, B",
		pkg: "./internal/cipher", run: "^TestRFC8439VectorsFromKeystream$", cpu: "avx512f"},
	// The PAIR fold of the AVX2 kernel and the AVX-512 one without IFMA.
	{name: "pair reduction's last carry dropped", file: "internal/cipher/wide_amd64.s",
		old: "ADCQ R14, R9; ADCQ $0, R10; \\\n\tLEAQ 32(SI), SI", new: "ADCQ R14, R9; \\\n\tLEAQ 32(SI), SI",
		pkg: "./internal/cipher", run: "^TestKeystreamMACPairCarry$", cpu: "avx2"},
	{name: "pair message carry dropped", file: "internal/cipher/wide_amd64.s",
		old: "ADCQ $1, R10; XORL R14, R14", new: "ADDQ $1, R10; XORL R14, R14",
		pkg: "./internal/cipher", run: "^TestKeystreamMACMatchesBlock$", cpu: "avx2"},
	// The AVX2 copy and checksum loop under Accumulate, FusedCopySum and
	// WordCopy.
	{name: "vector sum without its high halves", file: "internal/checksum/sum_amd64.s",
		old: "VPADDQ Y, LO, LO; VPADDQ T, HI, HI", new: "VPADDQ Y, LO, LO",
		pkg: "./internal/ilp", run: "^TestSumArmsAgree$", cpu: "avx2"},
	{name: "vector loop skips its last 8 bytes", file: "internal/checksum/sum_amd64.s",
		old: "TESTQ $8, CX; JZ done;", new: "JMP done;",
		pkg: "./internal/ilp", run: "^TestSumArmsAgree$", cpu: "avx2"},
	// A sharded flow's keystream is its own (ROADMAP 23).
	{name: "flowKey dropped from AddFlow", file: "internal/core/shard.go",
		old: "\tcfg.Key = flowKey(cfg.Key, id)\n", new: "\n",
		pkg: "./internal/core", run: "^TestShardFlowsDistinctKeystream$", tags: "nonceledger"},
	// The pool's one-owner counts and netsim's departure timer (item 26).
	{name: "ref returned to the pool while still held", file: "internal/buf/buf.go",
		old: "case left == 0:", new: "case left <= 1:",
		pkg: "./internal/buf", run: "^TestRetainDelaysRecycle$"},
	{name: "departure drained before its txEnd", file: "internal/netsim/netsim.go",
		old: "for l.q.len() > 0 && l.q.peek().due <= now {", new: "for l.q.len() > 0 {",
		pkg: "./internal/netsim", run: "^TestBackToBackPacketsQueue$"},
	// Per-fragment control without maps, copies or re-zeroing (item 26).
	{name: "placement bit one off", file: "internal/core/receiver.go",
		old: "p.got[k>>6] |= 1 << (k & 63)", new: "p.got[k>>6] |= 2 << (k & 63)",
		pkg: "./internal/core", run: "^TestPlacementMatchesModel$"},
	{name: "ring pop without its wrap mask", file: "internal/netsim/netsim.go",
		old: "f.head = (f.head + 1) & (len(f.buf) - 1)", new: "f.head = f.head + 1",
		pkg: "./internal/netsim", run: "^TestPktFIFO$"},
	{name: "routed packet keeps Corrupted", file: "internal/netsim/netsim.go",
		old: "\tp.Corrupted = false\n\t_ = out.admit(p)", new: "\t_ = out.admit(p)",
		pkg: "./internal/netsim", run: "^TestRouterHandsBufferOn$"},
	// One fragment grid per stream, and custody only of fragments that
	// tile their ADU.
	{name: "grid check dropped", file: "internal/core/alf.go",
		old: "return k, off == k*g.fp && n ==", new: "return k, n ==",
		pkg: "./internal/core", run: "^TestOffGridNeverDelivers$"},
	{name: "relay overlap check dropped", file: "internal/relay/relay.go",
		old: "if s.off == off || s.off < off+n && off < s.off+s.n {", new: "if s.off == off {",
		pkg: "./internal/relay", run: "^TestCustodyOnlyFromTilingFragments$"},
	// One grid value per stream: the receiver's test, the lanes found by
	// fragment index, and the recovery charge of an ADU's wire size.
	{name: "grid accepts a full-fp last fragment", file: "internal/core/alf.go",
		old: "n == min(g.fp, total-off)", new: "n == g.fp",
		pkg: "./internal/core", run: "^TestPlacementMatchesModel$"},
	{name: "dataMAC lane from k+1", file: "internal/core/crypto.go",
		old: "run, i := k/cipher.Lanes, k%cipher.Lanes", new: "run, i := k/cipher.Lanes, (k+1)%cipher.Lanes",
		pkg: "./internal/core", run: "^TestSealChainTags$"},
	{name: "recovery charge without parity payload", file: "internal/core/alf.go",
		old: "if p > 0 {", new: "if p < 0 {",
		pkg: "./internal/core", run: "^TestRecoveryChargeIsWireBytes$"},
	// The lanes a shard's flows share are a cache keyed by owner: each
	// half of a flow needs its own test, since a sender and a receiver
	// that both ignored the owner would agree on the wrong keys.
	{name: "lanes cache ignores its owner", file: "internal/core/crypto.go",
		old: "l.n <= i || l.owner != c || l.name != name", new: "l.n <= i || l.name != name",
		pkg: "./internal/core", run: "^TestShardLanes(SealAsLone|OpenInterleaved)$"},
	// The soak families' exactly-once account and end-state checks, and
	// the receiver's one delivery per ADU.
	{name: "accepted submission not recorded", file: "internal/faults/soak/ledger.go",
		old: "\t\tl.accept(name, k)\n", new: "\t\t_ = name\n",
		pkg: "./internal/faults/soak", run: "^TestScenarioMatrix$"},
	{name: "lost Critical ADU never flagged", file: "internal/faults/soak/ledger.go",
		old: "\t\t\tl.v.violatef(\"%sCritical ADU %d lost %s\", l.prefix, name, where)\n", new: "",
		pkg: "./internal/faults/soak", run: "^TestDTNEndToEndCollapses$"},
	{name: "finish skips the quiescence check", file: "internal/faults/soak/ledger.go",
		old: "\tr.v.quiesced(r.net.Links(), r.streams...)\n", new: "",
		pkg: "./internal/faults/soak", run: "^TestFinishCatchesRetainedADU$"},
	{name: "ADU delivered twice", file: "internal/core/receiver.go",
		old: "\t\tr.OnADU(adu)\n\t} else {", new: "\t\tr.OnADU(adu)\n\t\tr.OnADU(adu)\n\t} else {",
		pkg: "./internal/core", run: "^TestPlacementMatchesModel$"},
	// The AVX2 row's fold split, opening in place.
	{name: "avx2 fold split rounded down", file: "internal/cipher/wide.go",
		old: "h = min((o+TagSize-1)/TagSize, nblk)", new: "h = min(o/TagSize, nblk)",
		pkg: "./internal/cipher", run: "^TestWideLoopsMatchBlock$/^avx2$", cpu: "avx2"},
	// A count past 2^31 is negative where int has 32 bits (ROADMAP 24).
	{name: "raw seq count not checked for n < 0", file: "internal/xcode/rawlwts.go",
		old: "if n < 0 || n > len(src) {", new: "if n > len(src) {",
		pkg: "./internal/xcode", run: "^TestPrefixedHugeCountTruncated$", goarch: "386"},
}

func TestMutants(t *testing.T) {
	root, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	flags := cpuFlags()
	for _, m := range mutants {
		t.Run(m.name, func(t *testing.T) {
			if m.cpu != "" && !flags[m.cpu] {
				t.Skipf("this CPU lacks %s, which the edited kernel needs", m.cpu)
			}
			dir := t.TempDir()
			copyModule(t, root, dir)
			path := filepath.Join(dir, m.file)
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if n := strings.Count(string(src), m.old); n != 1 {
				t.Fatalf("%s holds the old text %d times, want once: %q", m.file, n, m.old)
			}
			if err := os.WriteFile(path, []byte(strings.Replace(string(src), m.old, m.new, 1)), 0o644); err != nil {
				t.Fatal(err)
			}
			args := []string{"test", "-count=1", "-run", m.run}
			if m.tags != "" {
				args = append(args, "-tags", m.tags)
			}
			cmd := exec.Command("go", append(args, m.pkg)...)
			cmd.Dir = dir
			cmd.Env = os.Environ()
			if m.goarch != "" {
				cmd.Env = append(cmd.Env, "GOARCH="+m.goarch)
			}
			out, err := cmd.CombinedOutput()
			switch {
			case err == nil:
				t.Fatalf("the mutant survived: go %s passed\n%s", strings.Join(args, " ")+" "+m.pkg, out)
			case bytes.Contains(out, []byte("[build failed]")) || bytes.Contains(out, []byte("[setup failed]")):
				t.Fatalf("the mutant does not build, so it proves nothing:\n%s", out)
			case !bytes.Contains(out, []byte("--- FAIL")) && !bytes.Contains(out, []byte("panic:")):
				t.Fatalf("go test failed, but no test did:\n%s", out)
			}
		})
	}
}

// copyModule copies the module at root, all but .git, into dir.
func copyModule(t *testing.T, root, dir string) {
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if rel == ".git" {
				return filepath.SkipDir
			}
			return os.MkdirAll(filepath.Join(dir, rel), 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dir, rel), b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}

// cpuFlags is the set of flags /proc/cpuinfo gives the first CPU, which
// is empty where there is no such file: there every kernel row skips.
func cpuFlags() map[string]bool {
	flags := map[string]bool{}
	b, _ := os.ReadFile("/proc/cpuinfo")
	for _, line := range strings.Split(string(b), "\n") {
		if name, list, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "flags" {
			for _, f := range strings.Fields(list) {
				flags[f] = true
			}
			break
		}
	}
	return flags
}
