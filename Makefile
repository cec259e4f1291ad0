# Standard loops for the alfnet reproduction. Everything is stdlib Go
# but three assembly files (internal/cipher/wide_amd64.s, the AVX-512
# and AVX2 ChaCha20 keystream kernels, which fold Poly1305 blocks while
# they run: on the vector unit where the CPU has AVX-512 IFMA, else on
# the integer ports; internal/checksum/sum_amd64.s, the AVX2 copy and
# checksum loop; internal/cpu's CPUID probe); no generated code, and
# four build tags: `timing`
# holds the tests that compare wall-clock measurements (see the timing
# target), `purego` builds without the assembly, so that the path
# every other architecture takes can be built and tested on amd64 (see
# the portable target), `nonceledger` builds core with the nonce
# ledger, which fails a seal that reuses a keystream position for other
# bytes (see the ledger target), and `mutants` holds the mutant
# catalogue (see the mutants target).

GO ?= go

.PHONY: build test mutants timing race vet fmt lint loc bench split benchmark benchmark-smoke fuzz fuzz386 soak soak-dtn soak-udp ledger alloc-guard bce-guard wire-leaf portable check

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The mutant catalogue (mutants_test.go, behind the `mutants` tag): each
# row edits one line of the source in a copy of the module and requires
# the tests it names to fail there. A row whose edit is in an assembly
# kernel this CPU lacks is skipped. About 10 s.
mutants:
	$(GO) test -count=1 -tags mutants -run '^TestMutants$$' -v .

# Every assertion that one wall-clock measurement beats another — the
# fused-versus-layered margins of E2/E4/E6, the saturated tracer's cost
# on Send — lives in timing_test.go files behind the `timing` tag, so
# `go test ./...` holds on a shared host and this target is the one to
# run on a quiet one.
timing:
	$(GO) test -count=1 -tags timing -run 'Timing$$' ./internal/experiments ./internal/tracing

fmt:
	@test -z "$$(gofmt -l .)" || { echo "gofmt -l . is not empty:"; gofmt -l .; exit 1; }

# Non-test / test lines per package outside benchmark/, Go and assembly
# alike (a .s file counts as non-test, so hand-coding a loop is not free
# in the budget), and the two totals ROADMAP aim 2 is measured by: all
# non-test code outside benchmark/, and the planes that watch the
# protocol (metrics + tracing + telemetry + stats) against the protocol
# (core). The counter is TestLoc (surface_test.go), which also holds
# both totals to ceilings in `go test ./...`.
loc:
	$(GO) test -count=1 -run '^TestLoc$$' -v .

# The packages with real concurrency: in internal/metrics, the registry
# lock (registration against Snapshot) and the histograms' atomics
# (Observe from many goroutines) — counts are Stats fields and levels
# GaugeFuncs, both single-goroutine — parallel hosts the worker-pool
# dispatch experiment, and the sharded endpoint (core's Sharded.Run +
# the experiments flow-scale sweep) drains per-shard schedulers, each
# with its own buf pool, from a worker pool — its determinism and
# near-linear-scaling tests must hold under -race. A buf pool has one
# owner and no lock, so the one flow of buffers between goroutines,
# udplink's receive ring (reader to loop and back), is raced by
# udplink's tests, the real-socket soak family and one short pass of
# the benchmark's UDP rig. telemetry rides along: the flight recorder
# samples the same registry the workers write.
race:
	$(GO) test -race ./internal/metrics ./internal/core ./internal/otp ./internal/parallel ./internal/buf ./internal/netsim ./internal/sim ./internal/telemetry ./internal/udplink
	$(GO) test -race -run 'FlowScale' ./internal/experiments
	$(GO) test -race -run 'UDP' ./internal/faults/soak
	$(GO) run -race ./benchmark -workloads udp_clear_256,udp_aead_8k_loss2 -reps 1 -rep-seconds 0.5 -trace 0

vet:
	$(GO) vet ./...

# Micro-benchmarks across the whole tree (kernels, endpoints, tracer,
# registry), for measuring while you work; throughput claims come from
# `make benchmark`. -run '^$' keeps the regular tests out of the timing
# run.
bench:
	$(GO) test -run '^$$' -bench . -benchmem ./...

# Where the CPU goes, as one table says it: core's steady-state
# datapath benches, cleartext and AEAD, its path with the network
# removed (ReceivePath; with SendSteadyState, EXPERIMENTS F1's
# whole-datapath row), the real-socket soak family's AEAD transfer
# over loopback sockets, and the 64k-flow shard plane on
# two workers (flows_sharded_64k's run), each profiled and its leaf
# functions bucketed by cmd/alfsplit (keystream kernel, Poly1305 in Go,
# tag key / Block, XOR, checksum + copy, packetize / placement, pool,
# scheduler, syscall / udplink, soak harness, runtime + GC, other),
# shares summing to 100 %. Test binaries and profiles go to a temporary
# directory, named by the benchmark. A perf change cites this split
# before and after.
SPLITTIME ?= 3s
split:
	@d=$$(mktemp -d) && trap 'rm -rf $$d' EXIT && \
	for pb in internal/core:SendSteadyState internal/core:SendSteadyStateAEAD internal/core:ReceivePath internal/faults/soak:UDPLoopback .:FlowScale/workers=2; do \
		p=$${pb%%:*} b=$${pb#*:} && f=$$(echo $$b | tr /= __) && \
		$(GO) test -run '^$$' -bench "^Benchmark$$b\$$" -benchtime $(SPLITTIME) -o $$d/$$f.test -cpuprofile $$d/$$f.prof ./$$p | grep '^Benchmark' && \
		$(GO) tool pprof -top -noinlines -nodefraction=0 $$d/$$f.test $$d/$$f.prof 2>/dev/null | $(GO) run ./cmd/alfsplit || exit 1; \
	done

# The repository's benchmark (benchmark/README.md, BENCHMARK.json): six
# wall-clock workloads, every metric printed by name, every delivered
# ADU checked byte for byte. About 2.5 minutes. This, not `make bench`,
# is the source of throughput numbers.
benchmark:
	$(GO) run ./benchmark

# A few seconds of the same harness: one short repetition of the
# in-process datapath and of the 64k-flow shard plane, tracing off.
# Exits non-zero if the ledger finds any ADU lost, duplicated or
# corrupted.
benchmark-smoke:
	$(GO) run ./benchmark -workloads sim_clear_8k,flows_sharded_64k -reps 1 -rep-seconds 0.5 -trace 0

# Native fuzzers over every frame format's classifier, printers and
# strict parsers (internal/wire), the ALF endpoints' packet handlers
# (the receiver's cleartext and AEAD paths: sealed fragments, then the
# genuine ADU opened against whatever the packet left behind) and
# their per-name window against its map model, the scheduler's firing
# order against its sorted-slice model, udplink's cut of a send queue
# into trains against the kernel's rule, every checksum loop against
# the 16-bit reference at any alignment and split, the wide keystream
# loops against scalar Block at any counter, offset, length and split
# (and two adjacent ranges sealed through one chain, and a row of free
# counters whose lane is handed in as the head), the AEAD against the
# standard library's TLS 1.2 ChaCha20-Poly1305 records, the kernel's
# Poly1305 blocks against MAC.block at any message, block count, r and
# accumulator, the fused AEAD kernels against the staged ones on
# clean and corrupted fragments, and the presentation decoders (BER,
# XDR, LWTS, raw and the message frame) on arbitrary bytes: no panic, no
# over-read, and decode → encode → decode keeps the value; ilp's fused
# BER integer-array decoder against the BER codec on the same bytes; and
# the session plane's OFFER / ACCEPT / REJECT parsers, whose accepted
# messages must re-encode to the same bytes; the AAL reassembler's
# cells and an OTP receiver's segments, which must hold no more than
# their bounds and still deliver a valid message intact after the
# junk; and a custody relay's frames from either side, whose store
# must stay within its bound now and at its peak. The budget is deliberately small so check stays fast; raise
# FUZZTIME for a real session. Every fuzzer minimizes each new input for
# 2 s at most (FUZZMIN): at the 60 s default, minimizing takes most of
# a short run (FuzzStdlibOracle made 647 executions in 10 s uncapped,
# 1 576 capped).
FUZZTIME ?= 5s
FUZZMIN = -fuzzminimizetime 2s
fuzz:
	$(GO) test -run '^$$' -fuzz '^FuzzPeek$$' -fuzztime $(FUZZTIME) $(FUZZMIN) ./internal/wire
	$(GO) test -run '^$$' -fuzz '^FuzzHandlePacket$$' -fuzztime $(FUZZTIME) $(FUZZMIN) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzHandleControl$$' -fuzztime $(FUZZTIME) $(FUZZMIN) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzHandleCustody$$' -fuzztime $(FUZZTIME) $(FUZZMIN) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzWindow$$' -fuzztime $(FUZZTIME) $(FUZZMIN) ./internal/core
	$(GO) test -run '^$$' -fuzz '^FuzzSchedulerOrder$$' -fuzztime $(FUZZTIME) $(FUZZMIN) ./internal/sim
	$(GO) test -run '^$$' -fuzz '^FuzzTrains$$' -fuzztime $(FUZZTIME) $(FUZZMIN) ./internal/udplink
	$(GO) test -run '^$$' -fuzz '^FuzzSumKernels$$' -fuzztime $(FUZZTIME) $(FUZZMIN) ./internal/ilp
	$(GO) test -run '^$$' -fuzz '^FuzzFusedDecryptCopyVerify$$' -fuzztime $(FUZZTIME) $(FUZZMIN) ./internal/ilp
	$(GO) test -run '^$$' -fuzz '^FuzzDecodeBERInt32sInto$$' -fuzztime $(FUZZTIME) $(FUZZMIN) ./internal/ilp
	$(GO) test -run '^$$' -fuzz '^FuzzKeystreamWide$$' -fuzztime $(FUZZTIME) $(FUZZMIN) ./internal/cipher
	$(GO) test -run '^$$' -fuzz '^FuzzPolyKernel$$' -fuzztime $(FUZZTIME) $(FUZZMIN) ./internal/cipher
	$(GO) test -run '^$$' -fuzz '^FuzzStdlibOracle$$' -fuzztime $(FUZZTIME) $(FUZZMIN) ./internal/cipher
	$(GO) test -run '^$$' -fuzz '^FuzzCodecs$$' -fuzztime $(FUZZTIME) $(FUZZMIN) ./internal/xcode
	$(GO) test -run '^$$' -fuzz '^FuzzSession$$' -fuzztime $(FUZZTIME) $(FUZZMIN) ./internal/session
	$(GO) test -run '^$$' -fuzz '^FuzzCell$$' -fuzztime $(FUZZTIME) $(FUZZMIN) ./internal/atm
	$(GO) test -run '^$$' -fuzz '^FuzzHandleSegment$$' -fuzztime $(FUZZTIME) $(FUZZMIN) ./internal/otp
	$(GO) test -run '^$$' -fuzz '^FuzzRelay$$' -fuzztime $(FUZZTIME) $(FUZZMIN) ./internal/relay
	$(MAKE) fuzz386

# Each network decoder's fuzz target again as GOARCH=386, where int has
# 32 bits, so that a length or count that wraps there is found by
# the fuzzer and not by a 32-bit host. The fuzzer cannot instrument 386
# builds for coverage, so these passes mutate blindly, but they run:
# FuzzPeek makes some 300 000 executions in 3 s.
fuzz386:
	GOARCH=386 $(GO) test -run '^$$' -fuzz '^FuzzPeek$$' -fuzztime 3s $(FUZZMIN) ./internal/wire
	GOARCH=386 $(GO) test -run '^$$' -fuzz '^FuzzHandlePacket$$' -fuzztime 3s $(FUZZMIN) ./internal/core
	GOARCH=386 $(GO) test -run '^$$' -fuzz '^FuzzHandleControl$$' -fuzztime 3s $(FUZZMIN) ./internal/core
	GOARCH=386 $(GO) test -run '^$$' -fuzz '^FuzzHandleCustody$$' -fuzztime 3s $(FUZZMIN) ./internal/core
	GOARCH=386 $(GO) test -run '^$$' -fuzz '^FuzzCodecs$$' -fuzztime 3s $(FUZZMIN) ./internal/xcode
	GOARCH=386 $(GO) test -run '^$$' -fuzz '^FuzzSession$$' -fuzztime 3s $(FUZZMIN) ./internal/session
	GOARCH=386 $(GO) test -run '^$$' -fuzz '^FuzzCell$$' -fuzztime 3s $(FUZZMIN) ./internal/atm
	GOARCH=386 $(GO) test -run '^$$' -fuzz '^FuzzHandleSegment$$' -fuzztime 3s $(FUZZMIN) ./internal/otp
	GOARCH=386 $(GO) test -run '^$$' -fuzz '^FuzzRelay$$' -fuzztime 3s $(FUZZMIN) ./internal/relay

# The nonce ledger (internal/core/ledger_on.go): core's tests, the
# shard plane's included, and every soak family, built so that each seal
# records the bytes each keystream position enciphered (per key
# fingerprint and nonce) and a hash of what its tag key (per counter
# domain and offset) authenticated, and a seal that reuses either for
# other bytes panics. The tests that count
# allocations are skipped here, as under -race: the ledger allocates.
ledger:
	$(GO) test -count=1 -tags nonceledger -skip 'Allocs|ZeroAlloc|NilRegistryBindsNothing' ./internal/core ./internal/faults/soak

# One seeded chaos pass: every scenario x policy plus the blackout
# shed/report assertions, and the overload family (closed-loop passes,
# fixed-rate collapses, both reproducible from fixed seeds — the
# TestDeterminism/TestOverloadDeterminism assertions), deterministic
# for the checked-in seeds. With SOAK_FLIGHTREC_DIR set, a failing
# headline run leaves its flight-recorder black-box JSON there (CI
# uploads the directory as an artifact on failure).
soak:
	$(GO) test -run 'TestScenarioMatrix|TestBlackoutShedsAndReports|TestDeterminism|TestOverloadClosedLoopNoCollapse|TestOverloadFixedRateCollapses|TestOverloadDeterminism' -v ./internal/faults/soak

# The DTN family: hours of virtual blackout on an 8-minute-one-way
# path, custody relays + the model-based rate controller versus the
# end-to-end baseline. Virtual-clock, deterministic, seed-swept — the
# whole multi-hour soak runs in about a second of wall time. Honors
# SOAK_FLIGHTREC_DIR like `make soak`.
soak-dtn:
	$(GO) test -count=1 -run 'TestDTN' -v ./internal/faults/soak

# The real-socket soak: udplink's own checks (the plain link
# round-trip, lossy-conn determinism, the seams between its I/O paths),
# then faults/soak's UDP family, authenticated ADU transfer across
# kernel loopback UDP with deterministic send-side drops, judged by the
# same ledger and end-state checks as `make soak` (one case with mixed
# ADU sizes, so trains of every shape share the queues).
soak-udp:
	$(GO) test -count=1 -v ./internal/udplink
	$(GO) test -count=1 -run UDP -v ./internal/faults/soak

# Static analysis beyond vet. staticcheck is not vendored; the target
# no-ops with a notice where the binary is absent (CI installs it).
lint: vet
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping (CI runs it)"; \
	fi

# Allocation-regression gate: the steady-state datapath
# (send -> forward -> deliver, plus the FEC paths), SenderBuffered
# retention at 4 and at 64 ADUs in flight (RetentionWindowZeroAlloc: the
# ring coming round reuses its slots), the receiver's gap scan,
# udplink's batch path (a train through sendmmsg -> recvmmsg -> inbox
# -> per-datagram dispatch over loopback, and its echoes back), and the
# event plane at depth (a link with a 16384-packet backlog, a scheduler
# with 65536 armed timers) must run at 0 allocs/op. The tests assert
# testing.AllocsPerRun == 0; the bench run reports the same numbers
# with -benchmem for the log. Set-up rides along: an endpoint pair, an
# OTP connection and a duplex link built without a registry stay under
# a fixed allocation count (NilRegistryBindsNothing: 6 for the pair),
# so metric bindings cannot creep back into per-flow state; a sharded
# flow costs at most one allocation to add (AddFlowAllocs, the set-up of
# flows_sharded_64k: a slab slot), a warm endpoint's new flows at most
# 0.05 per delivered ADU to run (FlowRunAllocs), a paced stream none
# more than an unpaced one (PacedSendZeroAlloc), and summing a flow's
# counters into Sharded.Stats none (metrics' AddStatsZeroAlloc); the
# reassembly state the flows share comes back clean
# (RecycledPartialIsClean). And the disabled
# tracer: no hook allocates on a nil *Tracer (DisabledTracerOverhead),
# and the compiler must still say it inlines Emit, which is what makes
# an endpoint event on a nil tracer a branch and not a call. The copy,
# XOR and checksum kernels under all of it are in the bench run too.
alloc-guard:
	@$(GO) build -gcflags=-m ./internal/tracing 2>&1 | grep -q 'can inline (\*Tracer).Emit$$' || { echo "(*Tracer).Emit no longer inlines"; exit 1; }
	$(GO) test -count=1 -run 'ZeroAlloc|PacedSendZeroAlloc|NilRegistryBindsNothing|AddFlowAllocs|FlowRunAllocs|RecycledPartialIsClean|DisabledTracerOverhead' -v ./internal/core ./internal/udplink ./internal/otp ./internal/netsim ./internal/sim ./internal/tracing ./internal/metrics
	$(GO) test -run '^$$' -bench 'SendSteadyState|ReceivePath|FECSender|FECRepair|NetsimForward|LinkDeepQueue|SchedulerDeep|FusedCopySum|Sum16|WordCopy4KB|XORWords' -benchmem ./internal/core ./internal/netsim ./internal/sim ./internal/ilp ./internal/checksum

# Bounds-check gate on the copy / checksum kernels and on the keystream
# loop every AEAD byte crosses on every build (cipher's xorWide; the XOR
# under it is the standard library's). Their unrolled main loops take a
# 64-byte window of each slice by a full slice expression, which leaves
# the compiler one check per iteration to make and lets it prove the
# window's eight loads and stores from it; written any other way each
# access carries its own; xorWide cuts each chunk once for the same
# reason. The compiler says which checks it kept (-d=ssa/check_bce), so
# this counts them per kernel — set-up, word loop and tail included, the
# main loop being one of them — and fails if a count rises over what is
# pinned here, or if a pin names no function in the scanned files (a
# kernel renamed or deleted must take its pin with it). Like
# alloc-guard's inlining grep it reads the compiler and not a clock, so
# it can gate on a shared runner.
BCE_PINS = Accumulate=2 WordCopy=3 XORWords=3 FusedCopySum=4 scrambleCopySum=6 xorWide=11
bce-guard:
	@$(GO) build -gcflags=-d=ssa/check_bce/debug=1 ./internal/ilp ./internal/checksum ./internal/cipher 2>&1 | awk -v pins='$(BCE_PINS)' ' \
		FILENAME != "-" { if ($$0 ~ /^func /) { fn = $$0; sub(/^func (\([^)]*\) )?/, "", fn); sub(/\(.*/, "", fn); def[fn] = 1 } \
		  else if ($$0 ~ /^}/) fn = ""; \
		  at[FILENAME ":" FNR] = fn; next } \
		/Found Is(Slice)?InBounds/ { split($$1, p, ":"); seen++; if ((f = at[p[1] ":" p[2]]) != "") got[f]++ } \
		END { if (!seen) { print "bce-guard: the compiler reported no bounds checks at all"; exit 1 } \
		  n = split(pins, kv, " "); \
		  for (i = 1; i <= n; i++) { split(kv[i], x, "="); \
		    if (!(x[1] in def)) { printf "bce-guard: pinned function %s is in none of the scanned files\n", x[1]; bad = 1 } \
		    else if (got[x[1]] + 0 > x[2] + 0) { printf "bce-guard: %s keeps %d bounds checks, pinned at %d\n", x[1], got[x[1]], x[2]; bad = 1 } } \
		  exit bad }' internal/ilp/ilp.go internal/checksum/checksum.go internal/cipher/wide.go -

# internal/wire owns every frame format and must stay a leaf:
# internal/tracing sniffs packets through it, and core, otp and netsim
# all import tracing. Of this module it may import checksum and xcode
# only.
wire-leaf:
	@bad=$$($(GO) list -f '{{join .Imports "\n"}}' ./internal/wire | grep '^repro/' | grep -v -x -e repro/internal/checksum -e repro/internal/xcode); \
	if [ -n "$$bad" ]; then echo "internal/wire must stay a leaf, but imports:"; echo "$$bad"; exit 1; fi

# udplink picks its socket I/O by platform (mmsg_linux*.go against
# mmsg_other.go), and only one side of that choice compiles here.
# Cross-compile the others so they cannot rot: the second batch-path
# architecture, a linux without the batch path (and with a 32-bit int),
# a non-linux unix, and windows. Standard library only, so this works
# offline. internal/cipher picks its keystream the same way (the AVX2
# kernel against pure Go), as does internal/checksum its copy and
# checksum loop, and there cross-compiling is not enough: the
# pure-Go path is the one every other architecture runs, so the packages
# it sits under are tested with the assembly tagged out, on this
# machine. GOAMD64=v1 builds for the oldest amd64, where the kernel is
# still compiled in and CPUID picks it or not at run time; the same
# tests run built that way, so the Go around the kernel (the counter
# rows, the lanes) is tested as the oldest amd64 compiles it. And the
# whole suite runs as 386, where int has 32 bits, so neither a test
# constant past int's range nor a length that wraps negative hides
# until a 32-bit host.
portable:
	GOOS=linux GOARCH=arm64 $(GO) build ./...
	GOOS=linux GOARCH=386 $(GO) build ./...
	GOARCH=386 $(GO) test ./...
	GOOS=darwin GOARCH=arm64 $(GO) build ./...
	GOOS=windows GOARCH=amd64 $(GO) vet ./internal/udplink
	GOAMD64=v1 $(GO) build ./...
	GOAMD64=v1 $(GO) test ./internal/cipher ./internal/checksum ./internal/ilp ./internal/core
	$(GO) test -tags purego ./internal/cipher ./internal/checksum ./internal/ilp ./internal/core

check: fmt build vet wire-leaf portable test mutants timing race fuzz soak soak-dtn soak-udp ledger alloc-guard bce-guard benchmark-smoke
