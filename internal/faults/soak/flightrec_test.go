package soak

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// dumpOnFailure registers a cleanup that leaves rec's black-box JSON
// in $SOAK_FLIGHTREC_DIR when the test fails — the CI artifact hook
// for `make soak` / `make soak-dtn`.
func dumpOnFailure(t *testing.T, rec *telemetry.Recorder, name string) {
	t.Cleanup(func() {
		if !t.Failed() {
			return
		}
		if path := DumpIfRequested(rec, name); path != "" {
			t.Logf("flight record dumped to %s", path)
		}
	})
}

// seriesByPrefix returns the dumped series whose IDs start with name
// (exact, or name followed by a label set / derived suffix).
func seriesByPrefix(d *telemetry.Dump, name string) []telemetry.DumpSeries {
	var out []telemetry.DumpSeries
	for _, s := range d.Series {
		if s.ID == name || strings.HasPrefix(s.ID, name+"{") || strings.HasPrefix(s.ID, name+"|") {
			out = append(out, s)
		}
	}
	return out
}

// TestDTNFlightRecorderPostMortem is the black-box acceptance run: the
// end-to-end (aimd) policy is pushed through the double conjunction it
// is known to die of, and the dump the failure leaves behind must be
// enough to diagnose it — a delivery-rate series spanning both
// blackout windows, detector incidents marking the collapse, and the
// soak harness's own invariant violations on the incident timeline.
// The custody run's dump supplies the store-occupancy view of the same
// windows (the aimd rig has no custody stores to record).
func TestDTNFlightRecorderPostMortem(t *testing.T) {
	// Both conjunction windows: 30–70 min and 100–140 min of a 4 h run.
	const (
		firstStart = 30 * time.Minute
		secondEnd  = 140 * time.Minute
	)

	// ---- Failing half: aimd mode, with the DTN detector catalog.
	rec := RecorderFor(4*time.Hour, DTNDetectors()...)
	res, err := RunDTN(DTNConfig{Seed: 1, Mode: "aimd", Planes: Planes{Recorder: rec}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Passed() {
		t.Fatal("aimd mode violated no invariant; there is no failure to post-mortem")
	}

	var buf bytes.Buffer
	if err := rec.WriteDump(&buf); err != nil {
		t.Fatal(err)
	}
	var dump telemetry.Dump
	if err := json.Unmarshal(buf.Bytes(), &dump); err != nil {
		t.Fatalf("dump is not valid JSON: %v", err)
	}

	// The retained window must span both conjunctions.
	if len(dump.TimesNS) == 0 {
		t.Fatal("dump has no tick times")
	}
	first, last := dump.TimesNS[0], dump.TimesNS[len(dump.TimesNS)-1]
	if first > int64(firstStart) {
		t.Errorf("record starts at %v, after the first conjunction began (%v)",
			time.Duration(first), firstStart)
	}
	if last < int64(secondEnd) {
		t.Errorf("record ends at %v, before the second conjunction ended (%v)",
			time.Duration(last), secondEnd)
	}

	// The delivery-rate series must be in the dump, full-length (born
	// at baseline, so tail-aligned over the whole window), and must
	// actually have seen traffic.
	delivered := seriesByPrefix(&dump, "core.recv.delivered_bytes")
	if len(delivered) == 0 {
		t.Fatal("dump has no core.recv.delivered_bytes series")
	}
	var total int64
	for _, s := range delivered {
		if len(s.Samples) != len(dump.TimesNS) {
			t.Errorf("%s: %d samples for %d ticks; does not span the window",
				s.ID, len(s.Samples), len(dump.TimesNS))
		}
		for _, v := range s.Samples {
			total += v
		}
	}
	if total == 0 {
		t.Error("delivery-rate series recorded zero bytes over the whole run")
	}

	// The blackout must have tripped at least one health detector, and
	// the harness's invariant violations must be on the timeline too.
	var detectorIncidents, soakNotes int
	for _, inc := range dump.Incidents {
		switch inc.Detector {
		case "soak":
			soakNotes++
		default:
			detectorIncidents++
		}
	}
	if detectorIncidents == 0 {
		t.Error("no detector incident fired across two 40-minute blackouts")
	}
	if soakNotes != len(res.Violations) {
		t.Errorf("dump carries %d soak violations, run reported %d",
			soakNotes, len(res.Violations))
	}

	// ---- Custody half: same conjunctions, and the store-occupancy
	// series must show the relays buffering through them.
	rec2 := RecorderFor(4*time.Hour, DTNDetectors()...)
	res2, err := RunDTN(DTNConfig{Seed: 1, Mode: "custody", Planes: Planes{Recorder: rec2}})
	if err != nil {
		t.Fatal(err)
	}
	if !res2.Passed() {
		t.Fatalf("custody mode violated invariants: %v", res2.Violations)
	}
	d2 := rec2.Dump()
	stored := seriesByPrefix(d2, "relay.stored_bytes")
	if len(stored) == 0 {
		t.Fatal("custody dump has no relay.stored_bytes series")
	}
	var peak int64
	for _, s := range stored {
		if len(s.Samples) != len(d2.TimesNS) {
			t.Errorf("%s: %d samples for %d ticks; does not span the window",
				s.ID, len(s.Samples), len(d2.TimesNS))
		}
		for _, v := range s.Samples {
			if v > peak {
				peak = v
			}
		}
	}
	if peak == 0 {
		t.Error("relay store occupancy flat at zero through two conjunctions")
	}
	if peak > res2.RelayPeakBytes {
		t.Errorf("sampled store peak %d exceeds the run's own accounting %d",
			peak, res2.RelayPeakBytes)
	}
	t.Logf("aimd: %d ticks, %d detector incidents, %d soak notes; custody: sampled store peak %dB (true peak %dB)",
		dump.Ticks, detectorIncidents, soakNotes, peak, res2.RelayPeakBytes)
}

// TestDTNRecorderDeterminism: attaching the flight recorder must not
// perturb a run (same results with and without), and two recorded runs
// of one seed must leave byte-identical dumps — series and incident
// log both. This is what makes a black box from CI reproducible
// locally.
func TestDTNRecorderDeterminism(t *testing.T) {
	bare, err := RunDTN(DTNConfig{Seed: 42, Mode: "custody"})
	if err != nil {
		t.Fatal(err)
	}
	var dumps [2][]byte
	for i := range dumps {
		rec := RecorderFor(4*time.Hour, DTNDetectors()...)
		res, err := RunDTN(DTNConfig{Seed: 42, Mode: "custody", Planes: Planes{Recorder: rec}})
		if err != nil {
			t.Fatal(err)
		}
		if res.Delivered != bare.Delivered || res.EndVirtual != bare.EndVirtual ||
			res.RelayPeakBytes != bare.RelayPeakBytes {
			t.Errorf("recorder perturbed the run: delivered %d/%d end %v/%v peak %d/%d",
				res.Delivered, bare.Delivered, res.EndVirtual, bare.EndVirtual,
				res.RelayPeakBytes, bare.RelayPeakBytes)
		}
		var buf bytes.Buffer
		if err := rec.WriteDump(&buf); err != nil {
			t.Fatal(err)
		}
		dumps[i] = buf.Bytes()
	}
	if !bytes.Equal(dumps[0], dumps[1]) {
		t.Error("identical seeds produced different flight records")
	}
}

// TestChaosRecorderDeterminism pins the same property on the chaos
// family, which exercises the fault injector and OTP alongside ALF.
func TestChaosRecorderDeterminism(t *testing.T) {
	var dumps [2][]byte
	for i := range dumps {
		rec := RecorderFor(3*time.Second, ChaosDetectors()...)
		if _, err := Run(Config{Seed: 7, Scenario: "random", Planes: Planes{Recorder: rec}}); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rec.WriteDump(&buf); err != nil {
			t.Fatal(err)
		}
		dumps[i] = buf.Bytes()
	}
	if !bytes.Equal(dumps[0], dumps[1]) {
		t.Error("identical seeds produced different flight records")
	}
}

// TestDumpIfRequested covers the CI artifact hook: no env var means no
// write, a set env var means a valid JSON dump at the returned path.
func TestDumpIfRequested(t *testing.T) {
	rec := RecorderFor(3*time.Second, ChaosDetectors()...)
	if _, err := Run(Config{Seed: 3, Planes: Planes{Recorder: rec}}); err != nil {
		t.Fatal(err)
	}

	t.Setenv("SOAK_FLIGHTREC_DIR", "")
	if path := DumpIfRequested(rec, "unwanted"); path != "" {
		t.Fatalf("dump written with no SOAK_FLIGHTREC_DIR: %s", path)
	}

	dir := t.TempDir()
	t.Setenv("SOAK_FLIGHTREC_DIR", dir)
	path := DumpIfRequested(rec, "chaos-random")
	if want := filepath.Join(dir, "chaos-random.json"); path != want {
		t.Fatalf("dump path = %q, want %q", path, want)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var dump telemetry.Dump
	if err := json.Unmarshal(raw, &dump); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	if dump.Ticks == 0 || len(dump.Series) == 0 {
		t.Errorf("artifact is empty: %d ticks, %d series", dump.Ticks, len(dump.Series))
	}
	if path := DumpIfRequested(nil, "nil-recorder"); path != "" {
		t.Fatalf("nil recorder wrote a dump: %s", path)
	}
}
