package main

import (
	"bytes"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
)

// benchmarkJSON mirrors the keys of the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// BENCHMARK.json is written by hand; the tables in this package are
// what the program prints. They must say the same thing.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(specs) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in specs", len(bj.Workloads), len(specs))
	}
	for i, w := range bj.Workloads {
		if w.Name != specs[i].name || w.Why != specs[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q / %q, specs has %q / %q", i, w.Name, w.Why, specs[i].name, specs[i].why)
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	var gated []metricDef
	for _, def := range endToEnd {
		if def.Gated {
			gated = append(gated, def)
		}
	}
	if len(bj.EndToEnd) != len(gated) {
		t.Fatalf("%d end_to_end metrics in BENCHMARK.json, want %d", len(bj.EndToEnd), len(gated))
	}
	for i, m := range bj.EndToEnd {
		def := gated[i]
		if m.Name != def.Name || m.Unit != def.Unit || m.Better != def.Better || m.Bound != def.Rel {
			t.Errorf("end_to_end %d: BENCHMARK.json has %+v, the table has %+v", i, m, def)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	if len(bj.PerLayer) != len(perLayer) {
		t.Fatalf("%d per_layer metrics in BENCHMARK.json, %d in the table", len(bj.PerLayer), len(perLayer))
	}
	seen := map[string]bool{}
	for i, m := range bj.PerLayer {
		def := perLayer[i]
		if m.Name != def.Name || m.Unit != def.Unit || m.Better != def.Better {
			t.Errorf("per_layer %d: BENCHMARK.json has %+v, the table has %+v", i, m, def)
		}
		if seen[m.Name] {
			t.Errorf("%s listed twice", m.Name)
		}
		seen[m.Name] = true
	}
	for _, def := range endToEnd {
		if seen[def.Name] == def.Gated {
			t.Errorf("%s: gated %v, listed under per_layer %v", def.Name, def.Gated, seen[def.Name])
		}
	}
}

// A metric computed under a name the tables do not have would be
// dropped without a word.
func TestComputedMetricNamesAreInTheTables(t *testing.T) {
	inTable := func(defs []metricDef) map[string]bool {
		m := map[string]bool{}
		for _, def := range defs {
			m[def.Name] = true
		}
		return m
	}
	p := rep{tr: newTracer(time.Now()), flow: new(experiments.FlowScalePoint), latSamples: 1}
	for name := range p.endToEndValues() {
		if !inTable(endToEnd)[name] {
			t.Errorf("end-to-end value %q is not in the table", name)
		}
	}
	if got := len(p.endToEndValues()); got != len(endToEnd) {
		t.Errorf("%d end-to-end values, %d in the table", got, len(endToEnd))
	}
	for name := range p.layerValues() {
		if !inTable(perLayer)[name] {
			t.Errorf("per-layer value %q is not in the table", name)
		}
	}
}

// Every workload runs, delivers every ADU intact, and reports every
// named metric as a finite number, in both forms of output.
func TestSmokeEveryWorkloadEveryMetric(t *testing.T) {
	c, err := net.ListenPacket("udp4", "127.0.0.1:0")
	if err != nil {
		t.Skipf("no loopback UDP here: %v", err)
	}
	c.Close()

	dir := t.TempDir()
	report, spans := filepath.Join(dir, "report.json"), filepath.Join(dir, "spans.json")
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-reps", "1", "-rep-seconds", "0.2", "-seed", "5", "-json", report, "-trace-out", spans}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s\n%s", code, stdout.String(), stderr.String())
	}
	b, err := os.ReadFile(report)
	if err != nil {
		t.Fatal(err)
	}
	var rp struct {
		Env       map[string]any
		Workloads []workloadResult
		Ladder    map[string]float64
	}
	if err := json.Unmarshal(b, &rp); err != nil {
		t.Fatal(err)
	}
	if rp.Env["link"] != "loopback" || rp.Env["nproc"] == nil || rp.Env["rmem_default"] == nil {
		t.Errorf("env block: %v", rp.Env)
	}
	if len(rp.Workloads) != len(specs) {
		t.Fatalf("%d workloads in the report, want %d", len(rp.Workloads), len(specs))
	}
	for i, w := range rp.Workloads {
		sp := specs[i]
		if w.Name != sp.name || w.Failed != 0 || w.Attempted == 0 {
			t.Errorf("%s: name %q attempted %d failed %d notes %v", sp.name, w.Name, w.Attempted, w.Failed, w.Notes)
		}
		for _, def := range endToEnd {
			s, ok := w.EndToEnd[def.Name]
			if sp.kind == kindFlows && strings.Contains(def.Name, "latency") {
				if ok {
					t.Errorf("%s: %s = %+v, want none: no ADU latency is visible there", sp.name, def.Name, s)
				}
			} else if !ok || !finite(s.Value) || len(s.Reps) < 1 {
				t.Errorf("%s: end-to-end %s = %+v", sp.name, def.Name, s)
			} else if def.Name != "failed_frac" && !strings.HasPrefix(def.Name, "alloc") && s.Value <= 0 {
				t.Errorf("%s: %s = %v, must never be 0", sp.name, def.Name, s.Value)
			}
			if !strings.Contains(stdout.String(), def.Name) {
				t.Errorf("stdout does not name %s", def.Name)
			}
		}
		for _, def := range perLayer {
			if v, ok := w.PerLayer[def.Name]; !ok || !finite(v) {
				t.Errorf("%s: per-layer %s = %v (present %v)", sp.name, def.Name, v, ok)
			}
			if !strings.Contains(stdout.String(), def.Name) {
				t.Errorf("stdout does not name %s", def.Name)
			}
		}
		// The self times sum to the traced window, the root's own share
		// being the explicit residual.
		var sum int64
		for _, st := range w.SelfTimes {
			sum += st.SelfNs
		}
		if sum != w.WindowNs || sum == 0 {
			t.Errorf("%s: self times sum to %d, window is %d", sp.name, sum, w.WindowNs)
		}
		if sp.loss == 0 && w.PerLayer["core.resent_adus"] != 0 {
			t.Errorf("%s: %v ADUs resent on a lossless workload", sp.name, w.PerLayer["core.resent_adus"])
		}
		if sp.kind == kindUDP && (w.PerLayer["udplink.writes_per_adu"] < 1 || w.PerLayer["udplink.write_ns_per_dgram"] <= 0) {
			t.Errorf("%s: the conn wrapper saw no writes", sp.name)
		}
	}
	if got := rp.Workloads[4].PerLayer["lossy.dropped"]; got <= 0 {
		t.Errorf("udp_aead_8k_loss2 dropped %v datagrams", got)
	}
	for name, v := range rp.Ladder {
		if v <= 0 || !finite(v) {
			t.Errorf("ladder %s = %v", name, v)
		}
	}
	if st, err := os.Stat(spans); err != nil || st.Size() == 0 {
		t.Errorf("trace-out: %v", err)
	}

	// The one-workload form ends with one JSON line holding exactly the
	// gated end-to-end metrics, or exactly the per-layer ones: on
	// flows_sharded_64k too, which measures no latency.
	gated := 0
	for _, def := range endToEnd {
		if def.Gated {
			gated++
		}
	}
	for _, c := range []struct {
		workload int
		traced   bool
	}{{2, false}, {2, true}, {5, false}} {
		traced := c.traced
		line, ok := resultLine(&rp.Workloads[c.workload], traced)
		var out struct {
			Correct   bool
			Attempted int64
			Failed    int64
			Metrics   map[string]struct {
				Value *float64
				Unit  string
			}
		}
		if err := json.Unmarshal([]byte(line), &out); err != nil || !ok || !out.Correct || out.Attempted < 1 || out.Failed != 0 {
			t.Fatalf("result line (traced %v): %v %s", traced, err, line)
		}
		want, n := endToEnd, gated
		if traced {
			want, n = perLayer, len(perLayer)
		}
		if len(out.Metrics) != n {
			t.Errorf("result line (traced %v) has %d metrics, want %d", traced, len(out.Metrics), n)
		}
		for _, def := range want {
			if !traced && !def.Gated {
				continue
			}
			if m, ok := out.Metrics[def.Name]; !ok || m.Value == nil || m.Unit != def.Unit || (!traced && *m.Value <= 0) {
				t.Errorf("result line (traced %v): %s = %+v", traced, def.Name, m)
			}
		}
	}
}

func TestCompareAgreesWithItself(t *testing.T) {
	rp := report{Seed: 1, Workloads: []workloadResult{{Name: specs[0].name, EndToEnd: map[string]summary{}}}}
	for _, def := range endToEnd {
		rp.Workloads[0].EndToEnd[def.Name] = summarize(def, []float64{10, 10.1, 10.2}, false)
	}
	path := filepath.Join(t.TempDir(), "a.json")
	if err := writeJSON(path, &rp); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-compare", path, path}, &stdout, &stderr); code != 0 {
		t.Errorf("a report disagrees with itself: exit %d\n%s%s", code, stdout.String(), stderr.String())
	}
	if code := run([]string{"-compare", path + "," + path, path + "," + path}, &stdout, &stderr); code != 0 {
		t.Errorf("a set of runs disagrees with itself: exit %d\n%s%s", code, stdout.String(), stderr.String())
	}
	if code := run([]string{"-compare", path}, &stdout, &stderr); code == 0 {
		t.Error("-compare with one argument must fail")
	}

	// A metric only one side reports is unresolved, not the same; one
	// neither side has (latency on flows_sharded_64k) is no pair at all.
	delete(rp.Workloads[0].EndToEnd, "adu_latency_p90_us")
	part := filepath.Join(t.TempDir(), "b.json")
	if err := writeJSON(part, &rp); err != nil {
		t.Fatal(err)
	}
	stdout.Reset()
	if code := run([]string{"-compare", path, part}, &stdout, &stderr); code != 1 || !strings.Contains(stdout.String(), "unresolved") {
		t.Errorf("a side missing a metric: exit %d\n%s", code, stdout.String())
	}
	stdout.Reset()
	if code := run([]string{"-compare", part, part}, &stdout, &stderr); code != 0 || strings.Contains(stdout.String(), "adu_latency_p90_us") {
		t.Errorf("a metric neither side has: exit %d\n%s", code, stdout.String())
	}
}
