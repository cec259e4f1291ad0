package telemetry

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/sim"
)

// byteStats is a component's Stats struct in miniature: one counter,
// named prefix + ".bytes" by BindStats.
type byteStats struct {
	Bytes int64 `metric:"bytes"`
}

// buildRun wires a registry with one series of each kind into a
// scheduler that exercises them, and returns both.
func buildRun() (*sim.Scheduler, *metrics.Registry) {
	s := sim.NewScheduler()
	reg := metrics.New()
	var st byteStats
	var depth int64
	metrics.BindStats(reg, "run", &st, "stream=0")
	reg.GaugeFunc("run.depth", func() int64 { return depth })
	h := reg.Histogram("run.lat_ns")
	// 10 events, one per 100ms: counter +100 each, gauge tracks the
	// event index, histogram observes a growing latency.
	for i := 1; i <= 10; i++ {
		s.At(sim.Time(i)*sim.Time(100*time.Millisecond), func() {
			st.Bytes += 100
			depth = int64(i)
			h.Observe(int64(i) * 1000)
		})
	}
	return s, reg
}

func TestRecorderSamplesKinds(t *testing.T) {
	s, reg := buildRun()
	rec := New(Config{Interval: 200 * time.Millisecond})
	rec.Bind(s, reg, sim.Time(time.Second))
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	// Ticks at 200ms..1000ms: 5 ticks.
	if rec.Ticks() != 5 {
		t.Fatalf("ticks = %d, want 5", rec.Ticks())
	}
	if rec.lastAt != sim.Time(time.Second) {
		t.Errorf("last tick at %v, want 1s", rec.lastAt)
	}

	// Counter: two events per 200ms interval -> delta 200 every tick.
	cs := rec.Series("run.bytes{stream=0}")
	if cs == nil || cs.Kind != Delta {
		t.Fatalf("counter series missing or wrong kind: %+v", cs)
	}
	for i := 0; i < cs.Len(); i++ {
		if cs.At(i) != 200 {
			t.Errorf("counter delta[%d] = %d, want 200", i, cs.At(i))
		}
	}

	// Gauge: level at tick k (t = 200ms*k) is the last event index 2k.
	gs := rec.Series("run.depth")
	if gs == nil || gs.Kind != Level {
		t.Fatalf("gauge series missing or wrong kind: %+v", gs)
	}
	for i := 0; i < gs.Len(); i++ {
		if want := int64(2 * (i + 1)); gs.At(i) != want {
			t.Errorf("gauge level[%d] = %d, want %d", i, gs.At(i), want)
		}
	}

	// Histogram: derived |count (2 obs/interval) and quantile series.
	hc := rec.Series("run.lat_ns|count")
	if hc == nil || hc.Kind != Delta {
		t.Fatalf("histogram count series missing: %+v", hc)
	}
	for i := 0; i < hc.Len(); i++ {
		if hc.At(i) != 2 {
			t.Errorf("interval count[%d] = %d, want 2", i, hc.At(i))
		}
	}
	p99 := rec.Series("run.lat_ns|p99")
	if p99 == nil || p99.Kind != Quantile {
		t.Fatalf("p99 series missing: %+v", p99)
	}
	// First interval observes 1000 and 2000: p99 ranks 2000, whose
	// bucket [1024,2047] upper bound is 2047.
	if got := p99.At(0); got != 2047 {
		t.Errorf("interval p99[0] = %d, want 2047", got)
	}
	// Interval quantiles reflect only that interval: the last interval
	// observes 9000 and 10000 (buckets [8192,16383]), not the global
	// min, so p50 there is far above early samples.
	p50 := rec.Series("run.lat_ns|p50")
	if got := p50.At(p50.Len() - 1); got != 16383 {
		t.Errorf("final interval p50 = %d, want 16383", got)
	}
}

// TestRecorderRingWrapKeepsTail: 1000 ticks of 1 ms overrun the
// 512-sample rings, which keep the newest 512: 489 ms to 1 s.
func TestRecorderRingWrapKeepsTail(t *testing.T) {
	s, reg := buildRun()
	rec := New(Config{Interval: time.Millisecond})
	rec.Bind(s, reg, sim.Time(time.Second))
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if rec.Ticks() != 1000 {
		t.Fatalf("ticks = %d, want 1000", rec.Ticks())
	}
	times := rec.Dump().TimesNS
	if len(times) != capacity {
		t.Fatalf("retained %d times, want %d", len(times), capacity)
	}
	if times[0] != int64(489*time.Millisecond) || times[capacity-1] != int64(time.Second) {
		t.Errorf("retained window %v..%v, want 489ms..1s", times[0], times[capacity-1])
	}
	gs := rec.Series("run.depth")
	if gs.Len() != capacity || gs.At(0) != 4 || gs.Last() != 10 {
		t.Errorf("gauge window len=%d first=%d last=%d, want %d/4/10", gs.Len(), gs.At(0), gs.Last(), capacity)
	}
}

func TestRecorderStopsWhenQueueDrains(t *testing.T) {
	// The recorder must never keep a run alive: once the workload's own
	// events are done, the sampling series ends even before the horizon.
	s := sim.NewScheduler()
	reg := metrics.New()
	metrics.BindStats(reg, "x", &byteStats{Bytes: 1})
	s.At(sim.Time(300*time.Millisecond), func() {})
	rec := New(Config{Interval: 100 * time.Millisecond})
	rec.Bind(s, reg, sim.Time(time.Hour))
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.Pending() != 0 {
		t.Fatalf("queue not drained: %d pending", s.Pending())
	}
	// Ticks at 100..300ms fire alongside the workload; the 300ms tick
	// (after the last workload event) sees an otherwise-empty queue and
	// stops the series.
	if rec.Ticks() != 3 {
		t.Errorf("ticks = %d, want 3", rec.Ticks())
	}
	if s.Now() >= sim.Time(time.Hour) {
		t.Errorf("recorder dragged the run to its horizon: now=%v", s.Now())
	}
}

func TestSeriesBornMidRunAligns(t *testing.T) {
	s := sim.NewScheduler()
	reg := metrics.New()
	reg.GaugeFunc("early", func() int64 { return 1 })
	s.At(sim.Time(450*time.Millisecond), func() {
		reg.GaugeFunc("late", func() int64 { return 9 })
	})
	s.At(sim.Time(time.Second), func() {})
	rec := New(Config{Interval: 100 * time.Millisecond})
	rec.Bind(s, reg, sim.Time(time.Second))
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	late := rec.Series("late")
	if late == nil {
		t.Fatal("late series not recorded")
	}
	// Born at the 500ms tick (tick 5 of 10): padded to full alignment.
	if late.Len() != rec.Ticks() {
		t.Fatalf("late series len %d, want %d (zero-padded)", late.Len(), rec.Ticks())
	}
	if late.At(0) != 0 || late.Last() != 9 {
		t.Errorf("late series first=%d last=%d, want 0/9", late.At(0), late.Last())
	}
}

// catalogRow returns the named rule of the default catalog, re-aimed at
// a test's own series, limit and tick count.
func catalogRow(name, series, limitSeries string, limit float64, ticks int) *Detector {
	for _, d := range DefaultDetectors(0, 0, 0, 0) {
		if d.name == name {
			d.series, d.limitSeries, d.limit, d.ticks = series, limitSeries, limit, ticks
			return d
		}
	}
	panic("no catalog row named " + name)
}

func TestDetectorEdgeTriggering(t *testing.T) {
	s := sim.NewScheduler()
	reg := metrics.New()
	var depth int64
	reg.GaugeFunc("q.depth", func() int64 { return depth }, "link=a->b/0")
	reg.GaugeFunc("q.limit", func() int64 { return 10 }, "link=a->b/0")
	// Saturated from 300ms to 700ms, then recovers.
	s.At(sim.Time(300*time.Millisecond), func() { depth = 10 })
	s.At(sim.Time(700*time.Millisecond), func() { depth = 1 })
	s.At(sim.Time(time.Second), func() {})
	rec := New(Config{
		Interval:  100 * time.Millisecond,
		Detectors: []*Detector{catalogRow("queue-saturation", "q.depth", "q.limit", 0, 2)},
	})
	rec.Bind(s, reg, sim.Time(time.Second))
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	incs := rec.Incidents()
	if len(incs) != 2 {
		t.Fatalf("incidents = %+v, want exactly fire+clear", incs)
	}
	// Saturation holds at ticks 300..600ms; the 2nd consecutive tick is
	// 400ms. Recovery is seen at the 700ms tick.
	if incs[0].Detector != "queue-saturation" || incs[0].At != sim.Time(400*time.Millisecond) {
		t.Errorf("fire incident = %+v", incs[0])
	}
	if incs[1].Message != "cleared" || incs[1].At != sim.Time(700*time.Millisecond) {
		t.Errorf("clear incident = %+v", incs[1])
	}
}

func TestRateCollapseArming(t *testing.T) {
	s := sim.NewScheduler()
	reg := metrics.New()
	var flow byteStats
	metrics.BindStats(reg, "flow", &flow, "stream=0")
	// Healthy 0..500ms (1000 bytes per 100ms = 10kB/s), then silence.
	for i := 1; i <= 5; i++ {
		s.At(sim.Time(i)*sim.Time(100*time.Millisecond), func() { flow.Bytes += 1000 })
	}
	s.At(sim.Time(time.Second)+sim.Time(200*time.Millisecond), func() {})
	det := catalogRow("rate-collapse", "flow.bytes", "", 1000, 3)
	rec := New(Config{Interval: 100 * time.Millisecond, Detectors: []*Detector{det}})
	rec.Bind(s, reg, sim.Time(time.Second+200*time.Millisecond))
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	incs := rec.Incidents()
	if len(incs) != 1 {
		t.Fatalf("incidents = %+v, want one collapse", incs)
	}
	// Below floor from the 600ms tick; 3rd consecutive is 800ms.
	if incs[0].Detector != "rate-collapse" || incs[0].At != sim.Time(800*time.Millisecond) {
		t.Errorf("collapse incident = %+v", incs[0])
	}

	// A flow that never reaches the floor must never arm.
	s2 := sim.NewScheduler()
	reg2 := metrics.New()
	metrics.BindStats(reg2, "flow", &byteStats{}, "stream=0")
	s2.At(sim.Time(time.Second), func() {})
	rec2 := New(Config{Interval: 100 * time.Millisecond,
		Detectors: []*Detector{catalogRow("rate-collapse", "flow.bytes", "", 1000, 3)}})
	rec2.Bind(s2, reg2, sim.Time(time.Second))
	if err := s2.Run(); err != nil {
		t.Fatal(err)
	}
	if n := len(rec2.Incidents()); n != 0 {
		t.Errorf("unarmed flow produced %d incidents", n)
	}
}

func TestNoteAndIncidentCap(t *testing.T) {
	rec := New(Config{})
	for i := 0; i < maxIncidents+2; i++ {
		rec.Note("soak", "", "violation %d", i)
	}
	incs := rec.Incidents()
	if len(incs) != maxIncidents || rec.incidentsDropped != 2 {
		t.Fatalf("cap kept %d dropped %d, want %d/2", len(incs), rec.incidentsDropped, maxIncidents)
	}
	if incs[0].Message != "violation 2" || incs[maxIncidents-1].Message != fmt.Sprintf("violation %d", maxIncidents+1) {
		t.Errorf("cap dropped the wrong end: first %q, last %q", incs[0].Message, incs[maxIncidents-1].Message)
	}
}

func TestDumpJSONRoundTrip(t *testing.T) {
	s, reg := buildRun()
	rec := New(Config{Interval: 200 * time.Millisecond})
	rec.Bind(s, reg, sim.Time(time.Second))
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	rec.Note("soak", "", "lost ADU 7")
	var buf bytes.Buffer
	if err := rec.WriteDump(&buf); err != nil {
		t.Fatal(err)
	}
	var d Dump
	if err := json.Unmarshal(buf.Bytes(), &d); err != nil {
		t.Fatalf("dump is not valid JSON: %v", err)
	}
	if d.Ticks != 5 || len(d.TimesNS) != 5 {
		t.Errorf("dump ticks=%d times=%d, want 5/5", d.Ticks, len(d.TimesNS))
	}
	ids := map[string]bool{}
	for _, ds := range d.Series {
		ids[ds.ID] = true
		if len(ds.Samples) != 5 {
			t.Errorf("series %s has %d samples, want 5", ds.ID, len(ds.Samples))
		}
	}
	for _, want := range []string{"run.bytes{stream=0}", "run.depth", "run.lat_ns|count", "run.lat_ns|p50", "run.lat_ns|p99"} {
		if !ids[want] {
			t.Errorf("dump missing series %s", want)
		}
	}
	if len(d.Incidents) != 1 || d.Incidents[0].Message != "lost ADU 7" {
		t.Errorf("dump incidents = %+v", d.Incidents)
	}
}

func TestCSVAndSparklineRender(t *testing.T) {
	s, reg := buildRun()
	rec := New(Config{Interval: 200 * time.Millisecond})
	rec.Bind(s, reg, sim.Time(time.Second))
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	var csv bytes.Buffer
	if err := rec.WriteCSV(&csv); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 6 {
		t.Fatalf("CSV has %d lines, want header+5 ticks:\n%s", len(lines), csv.String())
	}
	if !strings.HasPrefix(lines[0], "tick,time_s,run.bytes{stream=0},run.depth,") {
		t.Errorf("CSV header = %s", lines[0])
	}
	if !strings.HasPrefix(lines[1], "1,0.200000,200,2,") {
		t.Errorf("CSV first row = %s", lines[1])
	}

	var sp bytes.Buffer
	if err := rec.WriteSparklines(&sp, "run.depth", 40); err != nil {
		t.Fatal(err)
	}
	out := sp.String()
	if !strings.Contains(out, "run.depth") || !strings.Contains(out, "min=2 max=10 last=10") {
		t.Errorf("sparkline output:\n%s", out)
	}

	// Determinism: rendering twice gives identical bytes.
	var sp2 bytes.Buffer
	if err := rec.WriteSparklines(&sp2, "run.depth", 40); err != nil {
		t.Fatal(err)
	}
	if sp.String() != sp2.String() {
		t.Error("sparkline render not deterministic")
	}
}

func TestRecorderDeterminism(t *testing.T) {
	// Two identical runs must produce bit-identical dumps — the unit
	// half of the determinism contract (the sharded/worker-count half
	// lives in internal/experiments).
	run := func() []byte {
		s, reg := buildRun()
		rec := New(Config{
			Interval:  100 * time.Millisecond,
			Detectors: DefaultDetectors(1, 0, 0, 0),
		})
		rec.Bind(s, reg, sim.Time(time.Second))
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := rec.WriteDump(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatal("identical runs produced different dumps")
	}
}

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	r.Bind(sim.NewScheduler(), metrics.New(), sim.Time(time.Second))
	r.Sample()
	r.Note("d", "s", "m")
	if r.Ticks() != 0 || r.LastRate(nil) != 0 {
		t.Error("nil recorder reports non-zero state")
	}
	if r.Series("x") != nil || r.MatchName("x") != nil || r.match("all") != nil || r.Incidents() != nil {
		t.Error("nil recorder returned non-nil collections")
	}
	if d := r.Dump(); d.Ticks != 0 || len(d.Series) != 0 {
		t.Error("nil recorder dumps state")
	}
	var buf bytes.Buffer
	if err := r.WriteDump(&buf); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteSparklines(&buf, "all", 40); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteIncidents(&buf); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteDumpFile(filepath.Join(t.TempDir(), "nil.json")); err != nil {
		t.Fatal(err)
	}
	if (*Series)(nil).Len() != 0 || (*Series)(nil).Last() != 0 {
		t.Error("nil series reports samples")
	}
}

func TestSampleDeduplicates(t *testing.T) {
	s := sim.NewScheduler()
	reg := metrics.New()
	reg.GaugeFunc("g", func() int64 { return 1 })
	rec := New(Config{})
	rec.Bind(s, reg, 0)
	s.RunUntil(100)
	rec.Sample()
	rec.Sample() // same instant: ignored
	s.RunUntil(200)
	rec.Sample()
	if rec.Ticks() != 2 {
		t.Errorf("ticks = %d, want 2 (duplicate dropped)", rec.Ticks())
	}
}

// TestSparklinesBeforeFirstTick: a recorder bound with until <= now
// schedules no tick, yet Bind's baseline already created the counter
// series; rendering must print the zero-tick header and the incidents,
// not index an empty time ring.
func TestSparklinesBeforeFirstTick(t *testing.T) {
	s := sim.NewScheduler()
	reg := metrics.New()
	metrics.BindStats(reg, "c", &byteStats{Bytes: 1})
	rec := New(Config{Interval: 10 * time.Millisecond})
	rec.Bind(s, reg, 0)
	rec.Note("soak", "", "violation")
	var buf bytes.Buffer
	if err := rec.WriteSparklines(&buf, "all", 40); err != nil {
		t.Fatal(err)
	}
	want := "flight record: 0 ticks (interval 10ms)\n" +
		"incidents (1):\n" +
		"            0s  soak                 -: violation\n"
	if got := buf.String(); got != want {
		t.Errorf("got:\n%s\nwant:\n%s", got, want)
	}
}
