package metrics_test

import (
	"reflect"
	"strings"
	"testing"
	"time"

	alf "repro/internal/core"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/otp"
	"repro/internal/relay"
	"repro/internal/sim"
)

// checkBound sets field i of *stats to i+1 and asserts that every
// exported int64 field not tagged "-" reads back from reg under
// prefix + "." + its tag, with that value and the tagged kind. It
// reads the tags itself, so it cannot drift from the struct.
func checkBound(t *testing.T, reg *metrics.Registry, prefix string, stats any, labels ...string) {
	t.Helper()
	v := reflect.ValueOf(stats).Elem()
	for i := 0; i < v.NumField(); i++ {
		if f := v.Type().Field(i); f.IsExported() && f.Type.Kind() == reflect.Int64 {
			v.Field(i).SetInt(int64(i + 1))
		}
	}
	snap := reg.Snapshot()
	checked := 0
	for i := 0; i < v.NumField(); i++ {
		f := v.Type().Field(i)
		if !f.IsExported() || f.Type.Kind() != reflect.Int64 {
			continue
		}
		name, opts, _ := strings.Cut(f.Tag.Get("metric"), ",")
		if name == "" {
			t.Errorf("%v.%s has no metric tag", v.Type(), f.Name)
			continue
		}
		if name == "-" {
			continue
		}
		wantKind := metrics.KindCounter
		if strings.Contains(","+opts+",", ",gauge,") {
			wantKind = metrics.KindGauge
		}
		m, ok := snap.Get(prefix+"."+name, labels...)
		switch {
		case !ok:
			t.Errorf("%v.%s: no series %s.%s%v", v.Type(), f.Name, prefix, name, labels)
		case m.Value != int64(i+1) || m.Kind != wantKind:
			t.Errorf("%s = %d (%v), want %d (%v) from %v.%s",
				m.ID(), m.Value, m.Kind, i+1, wantKind, v.Type(), f.Name)
		}
		checked++
	}
	if checked == 0 {
		t.Errorf("%v: no field checked", v.Type())
	}
}

// TestStatsStructsBindEveryField is the completeness contract for the
// seven Stats structs: built the way the rigs build them, each component
// must expose every one of its counters.
func TestStatsStructsBindEveryField(t *testing.T) {
	reg := metrics.New()
	s := sim.NewScheduler()
	cfg := alf.Config{StreamID: 3, Metrics: reg}
	snd, err := alf.NewSender(s, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkBound(t, reg, "core.send", &snd.Stats, "stream=3")
	rcv, err := alf.NewReceiver(s, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkBound(t, reg, "core.recv", &rcv.Stats, "stream=3")

	conn := otp.New(s, nil, otp.Config{ConnID: 2, Metrics: reg, MetricsLabels: []string{"role=snd"}})
	checkBound(t, reg, "otp", &conn.Stats, "conn=2", "role=snd")

	net := netsim.New(s, 1)
	net.SetMetrics(reg)
	a, b := net.NewNode("a"), net.NewNode("b")
	ab, ba := net.NewDuplex(a, b, netsim.LinkConfig{})
	checkBound(t, reg, "netsim.node", &a.Stats, "node=0:a")
	checkBound(t, reg, "netsim.node", &b.Stats, "node=1:b")
	checkBound(t, reg, "netsim.link", &ab.Stats, "link=a->b/0")
	checkBound(t, reg, "netsim.link", &ba.Stats, "link=b->a/1")

	rl, err := relay.New(s, b, ba, ab, relay.Config{Name: "r1", CustodyTimer: time.Second, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	checkBound(t, reg, "relay", &rl.Stats, "relay=r1")

	inj := faults.New(s, 1)
	inj.BindMetrics(reg, "rig=x")
	checkBound(t, reg, "faults", &inj.Stats, "rig=x")
}

func TestBindStatsTagGrammar(t *testing.T) {
	type stats struct {
		Hits   int64 `metric:"hits"`
		Level  int64 `metric:"level,gauge"`
		Peak   int64 `metric:"peak,gauge,max"`
		Hidden int64 `metric:"-"`
		Name   string
		spare  int64
	}
	st := stats{Hits: 4, Level: 5, Peak: 6, Hidden: 7, spare: 8}
	reg := metrics.New()
	metrics.BindStats(reg, "t", &st, "k=v", "shard=1")
	snap := reg.Snapshot()
	if len(snap.Metrics) != 3 {
		t.Fatalf("registered %d series, want 3: %+v", len(snap.Metrics), snap.Metrics)
	}
	for name, want := range map[string]metrics.Metric{
		"t.hits":  {Kind: metrics.KindCounter, Value: 4},
		"t.level": {Kind: metrics.KindGauge, Value: 5},
		"t.peak":  {Kind: metrics.KindGauge, Value: 6},
	} {
		if m, ok := snap.Get(name, "k=v", "shard=1"); !ok || m.Kind != want.Kind || m.Value != want.Value {
			t.Errorf("%s = %+v (present %v), want %v %d", name, m, ok, want.Kind, want.Value)
		}
	}
	// The series is the field: a later write shows in the next snapshot.
	st.Hits = 40
	if got := reg.Snapshot().Value("t.hits", "k=v", "shard=1"); got != 40 {
		t.Errorf("t.hits = %d after the field moved to 40", got)
	}

	mustPanic := func(what string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		fn()
	}
	type untagged struct {
		A int64 `metric:"a"`
		B int64
	}
	type misspelt struct {
		A int64 `metric:"a,guage"`
	}
	mustPanic("an untagged int64 field", func() { metrics.BindStats(reg, "t", &untagged{}) })
	mustPanic("an unknown tag option", func() { metrics.BindStats(reg, "t", &misspelt{}) })
	// A nil registry returns before it looks at the type at all.
	metrics.BindStats(nil, "t", &untagged{})
}

func TestAddStats(t *testing.T) {
	type stats struct {
		Hits   int64 `metric:"hits"`
		Peak   int64 `metric:"peak,gauge,max"`
		Hidden int64 `metric:"-"`
		Flows  int
	}
	sum := stats{Flows: 9}
	for _, src := range []stats{{Hits: 1, Peak: 5, Hidden: 2}, {Hits: 10, Peak: 3, Hidden: 20}, {Hits: 100, Peak: 4}} {
		metrics.AddStats(&sum, &src)
	}
	if want := (stats{Hits: 111, Peak: 5, Hidden: 22, Flows: 9}); sum != want {
		t.Errorf("AddStats = %+v, want %+v", sum, want)
	}
}

// TestAddStatsZeroAlloc: Sharded.Stats calls AddStats twice per flow, so
// summing through the cached plan must not allocate.
func TestAddStatsZeroAlloc(t *testing.T) {
	type stats struct {
		Hits int64 `metric:"hits"`
		Peak int64 `metric:"peak,gauge,max"`
	}
	var sum stats
	src := stats{Hits: 1, Peak: 2}
	if allocs := testing.AllocsPerRun(100, func() { metrics.AddStats(&sum, &src) }); allocs != 0 {
		t.Errorf("AddStats: %v allocs/op, want 0", allocs)
	}
}
