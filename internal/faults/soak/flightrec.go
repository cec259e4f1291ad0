package soak

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// This file sizes flight recorders for the soak families and handles
// the CI black-box contract: when SOAK_FLIGHTREC_DIR is set, a failing
// must-pass soak test leaves its JSON dump there, and the workflow
// uploads the directory as an artifact on failure — so a chaos
// regression is diagnosable from the run page without reproducing it
// locally.

// recorderTicks is the target tick count across a run's horizon: under
// the recorder's default 512-sample capacity, so the whole run stays
// in the window, with slack for the final post-drain sample.
const recorderTicks = 480

// RecorderFor returns a flight recorder whose sampling interval spreads
// recorderTicks ticks across the horizon, with the given detectors.
func RecorderFor(horizon sim.Duration, detectors ...*telemetry.Detector) *telemetry.Recorder {
	iv := horizon / recorderTicks
	if iv < time.Millisecond {
		iv = time.Millisecond
	}
	return telemetry.New(telemetry.Config{Interval: iv, Detectors: detectors})
}

// ChaosDetectors is the catalog for the chaos scenario family, tuned
// to the Run topology (8 Mb/s trunk, queue 64).
func ChaosDetectors() []*telemetry.Detector {
	return telemetry.DefaultDetectors(
		1000,                 // delivery under 1 kB/s counts as collapsed once seen healthy
		0,                    // no custody stores in this family
		64,                   // trunk QueueLimit (also self-reported per link)
		250*time.Millisecond, // HeartbeatMaxInterval in Run's config
	)
}

// DTNDetectors is the catalog for the DTN family: a 30 s ADU cadence
// means healthy delivery is ~1 kB/s, and any sustained silence beyond
// a few sampling ticks is a collapse (expected during conjunction —
// the incident timeline is how the blackout shows up in the record).
func DTNDetectors() []*telemetry.Detector {
	return telemetry.DefaultDetectors(
		100, // B/s: an order under the steady delivery rate
		dtnStorageLimit,
		0,
		time.Hour, // HeartbeatMaxInterval in RunDTN's config
	)
}

// OverloadDetectors is the catalog for the overload family.
func OverloadDetectors() []*telemetry.Detector {
	return telemetry.DefaultDetectors(
		70_000, // 10% of the 700 kB/s goodput floor
		0,
		64, // trunk QueueLimit
		0,  // overload senders never back off their heartbeats far
	)
}

// DumpIfRequested writes rec's black-box dump to
// $SOAK_FLIGHTREC_DIR/<name>.json and returns the path, or "" when the
// env var is unset, the recorder is nil, or the write fails (CI treats
// the dump as best-effort: it must never turn a clean failure into a
// confusing one).
func DumpIfRequested(rec *telemetry.Recorder, name string) string {
	dir := os.Getenv("SOAK_FLIGHTREC_DIR")
	if dir == "" || rec == nil {
		return ""
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return ""
	}
	path := filepath.Join(dir, fmt.Sprintf("%s.json", name))
	if err := rec.WriteDumpFile(path); err != nil {
		return ""
	}
	return path
}
