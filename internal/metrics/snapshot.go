package metrics

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// Metric is one series captured in a Snapshot.
type Metric struct {
	Name   string
	Labels []string // sorted "key=value" pairs
	Kind   Kind
	Value  int64           // counter/gauge value
	Hist   *HistogramValue // non-nil for KindHistogram
}

// ID returns the full series identity: name plus labels.
func (m *Metric) ID() string {
	if len(m.Labels) == 0 {
		return m.Name
	}
	return m.Name + "{" + strings.Join(m.Labels, ",") + "}"
}

// Snapshot is a point-in-time capture of every series in a registry,
// sorted by series identity. Once taken it is immutable: later
// instrument updates do not affect it.
type Snapshot struct {
	Metrics []Metric
}

// Snapshot captures the current value of every series: Stats fields
// and GaugeFuncs are read now. On a nil registry it returns an empty
// snapshot.
func (r *Registry) Snapshot() *Snapshot {
	snap := &Snapshot{}
	if r == nil {
		return snap
	}
	for _, s := range r.sorted() {
		m := Metric{Name: s.name, Labels: s.labels, Kind: s.kind, Value: s.value()}
		if s.hist != nil {
			m.Hist = s.hist.snapshot()
		}
		snap.Metrics = append(snap.Metrics, m)
	}
	return snap
}

// Get returns the captured metric for (name, labels), if present.
func (s *Snapshot) Get(name string, labels ...string) (Metric, bool) {
	k, _ := key(name, labels)
	for i := range s.Metrics {
		if s.Metrics[i].ID() == k {
			return s.Metrics[i], true
		}
	}
	return Metric{}, false
}

// Value returns the captured counter/gauge value for (name, labels),
// or 0 when absent.
func (s *Snapshot) Value(name string, labels ...string) int64 {
	m, _ := s.Get(name, labels...) // the zero Metric when absent
	return m.Value
}

// formatValue renders a value using the unit convention carried in the
// series name suffix: "_ns" values render as durations, everything
// else as a plain integer.
func formatValue(name string, v int64) string {
	if strings.HasSuffix(name, "_ns") {
		return time.Duration(v).String()
	}
	return fmt.Sprintf("%d", v)
}

// histLine renders a histogram summary on one line.
func histLine(name string, hv *HistogramValue) string {
	if hv.Count == 0 {
		return "n=0"
	}
	f := func(v int64) string { return formatValue(name, v) }
	return fmt.Sprintf("n=%d min=%s mean=%s p50=%s p95=%s p99=%s max=%s",
		hv.Count, f(hv.Min), f(int64(hv.Mean())), f(hv.Quantile(0.50)),
		f(hv.Quantile(0.95)), f(hv.Quantile(0.99)), f(hv.Max))
}

// WriteText writes the snapshot as String renders it.
func (s *Snapshot) WriteText(w io.Writer) error {
	_, err := io.WriteString(w, s.String())
	return err
}

// String renders the snapshot as an aligned plain-text table, one row
// per series, with populated histogram buckets indented beneath their
// summary row (bars scale to the largest bucket).
func (s *Snapshot) String() string {
	nameW, kindW := len("metric"), len("type")
	for i := range s.Metrics {
		if n := len(s.Metrics[i].ID()); n > nameW {
			nameW = n
		}
		if n := len(s.Metrics[i].Kind.String()); n > kindW {
			kindW = n
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-*s  %-*s  %s\n", nameW, "metric", kindW, "type", "value")
	fmt.Fprintf(&b, "%s  %s  %s\n", strings.Repeat("-", nameW), strings.Repeat("-", kindW), strings.Repeat("-", len("value")))
	for i := range s.Metrics {
		m := &s.Metrics[i]
		v := formatValue(m.Name, m.Value)
		if m.Kind == KindHistogram {
			v = histLine(m.Name, m.Hist)
		}
		fmt.Fprintf(&b, "%-*s  %-*s  %s\n", nameW, m.ID(), kindW, m.Kind.String(), v)
		if m.Kind == KindHistogram && m.Hist.Count > 0 {
			writeBuckets(&b, m.Name, m.Hist)
		}
	}
	return b.String()
}

// writeBuckets renders the populated buckets of one histogram.
func writeBuckets(b *strings.Builder, name string, hv *HistogramValue) {
	var maxN int64
	for _, bk := range hv.Buckets {
		maxN = max(maxN, bk.Count)
	}
	for _, bk := range hv.Buckets {
		lo := max(bk.Lo, 0) // the <=0 bucket; render its floor as 0
		fmt.Fprintf(b, "    [%12s, %12s]  %8d  %s\n",
			formatValue(name, lo), formatValue(name, bk.Hi), bk.Count, strings.Repeat("#", int(1+bk.Count*24/maxN)))
	}
}
