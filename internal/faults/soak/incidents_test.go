package soak

import (
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// incidentLog renders a recorder's incident log one line per incident:
// time, detector, series, message.
func incidentLog(b *strings.Builder, title string, rec *telemetry.Recorder) {
	fmt.Fprintf(b, "# %s\n", title)
	for _, inc := range rec.Incidents() {
		fmt.Fprintf(b, "%d\t%s\t%s\t%s\n", int64(inc.At), inc.Detector, inc.Series, inc.Message)
	}
}

// TestIncidentsPinned holds the detector catalog's output still: the
// full incident logs of seeded overload, DTN and chaos runs, captured
// in testdata while the five threshold detectors were five types, must
// come out byte-identical from whatever implements them now. Between
// them the runs fire (and clear) every detector DefaultDetectors builds.
func TestIncidentsPinned(t *testing.T) {
	golden, err := os.ReadFile("testdata/incidents.golden")
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder

	rec := RecorderFor(6*time.Second, OverloadDetectors()...)
	if _, err := RunOverload(OverloadConfig{Seed: 42, Shape: "burst", Planes: Planes{Recorder: rec}}); err != nil {
		t.Fatal(err)
	}
	incidentLog(&b, "overload seed=42 shape=burst mode=closed", rec)
	for _, mode := range []string{"custody", "aimd"} {
		rec := RecorderFor(4*time.Hour, DTNDetectors()...)
		if _, err := RunDTN(DTNConfig{Seed: 1, Mode: mode, Planes: Planes{Recorder: rec}}); err != nil {
			t.Fatal(err)
		}
		incidentLog(&b, "dtn seed=1 mode="+mode, rec)
	}
	rec = RecorderFor(3*time.Second, ChaosDetectors()...)
	if _, err := Run(Config{Seed: 7, Scenario: "blackout", Planes: Planes{Recorder: rec}}); err != nil {
		t.Fatal(err)
	}
	incidentLog(&b, "chaos seed=7 scenario=blackout", rec)

	if got := b.String(); got != string(golden) {
		t.Errorf("incident log changed; got:\n%s\nwant:\n%s", got, golden)
	}
}
