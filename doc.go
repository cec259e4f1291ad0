// Package repro is a from-scratch reproduction of Clark & Tennenhouse,
// "Architectural Considerations for a New Generation of Protocols"
// (SIGCOMM 1990): Application Level Framing (ALF) and Integrated Layer
// Processing (ILP), together with every substrate the paper's arguments
// rest on — a discrete-event network simulator, an ATM cell/adaptation
// layer, a TCP-model ordered transport, a presentation layer (ASN.1
// BER, XDR, raw, and a light-weight transfer syntax), fused
// data-manipulation kernels, and the applications (file transfer,
// video, RPC, parallel receivers) the paper motivates.
//
// Every layer also reports into a unified metrics registry
// (internal/metrics): counters declared as tagged Stats fields, gauges
// read from live state, and nil-safe log-bucketed histograms driven by
// the simulator's virtual clock, so any run's full metric tree —
// fragments, NACKs, head-of-line stall times, per-link drops, ADU
// latency distributions — is deterministic for a given seed and
// renderable as one table.
//
// Two planes sit above the per-stream protocol machinery. The control
// plane (§3) keeps control traffic out of the per-packet path:
// internal/session negotiates syntax, keys, and stream parameters out
// of band, and the closed feedback loop in internal/core — periodic
// cumulative receiver reports, pluggable RateController (AIMD or
// fixed), priority shedding before packetization, capped recovery
// bandwidth — turns §3's rate-based transmission control into a
// no-collapse guarantee under overload. The shard plane (§7) scales an
// endpoint to very large flow populations: alf.Sharded hashes flows
// over N shards, each owning a scheduler, a buffer arena, and a trunk;
// the shards share nothing, so each runs alone to quiescence on a pool
// of workers — and the worker count never changes results, only
// wall-clock. docs/SCALING.md documents that contract and the scaling
// curve.
//
// The root package holds the benchmark suite (bench_test.go), one
// benchmark per table or figure in DESIGN.md, plus BenchmarkFlowScale,
// the §7 flow-scaling curve. The library lives under internal/;
// runnable demos live under examples/. Four commands ship with it:
// cmd/alfbench regenerates the paper's tables and figures and drives
// the sharded endpoint at scale (-flows), cmd/alfstat runs a measured
// ALF-vs-ordered-transport scenario and prints the metric tree,
// cmd/alfchaos runs fault and overload scenarios against soak
// invariants, and cmd/alftrace decodes a simulated run packet by
// packet. Wall-clock throughput comes from the benchmark (go run
// ./benchmark; BENCHMARK.json declares it, benchmark/README.md reads
// it). docs/ARCHITECTURE.md maps every package to the paper section
// it reproduces.
package repro
