package stats

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestMbps(t *testing.T) {
	// 1 MB in one second = 8 Mb/s.
	if got := Mbps(1e6, time.Second); got != 8 {
		t.Errorf("Mbps(1e6, 1s) = %v, want 8", got)
	}
	if got := Mbps(1e6, 0); got != 0 {
		t.Errorf("Mbps with zero elapsed = %v, want 0", got)
	}
	if got := Mbps(1e6, -time.Second); got != 0 {
		t.Errorf("Mbps with negative elapsed = %v, want 0", got)
	}
}

func TestSampleBasics(t *testing.T) {
	var s Sample
	if s.Mean() != 0 || s.Percentile(0) != 0 || s.Percentile(100) != 0 || s.Percentile(50) != 0 {
		t.Error("empty sample should report zeros")
	}
	for _, x := range []float64{4, 1, 3, 2} {
		s.Add(x)
	}
	if s.N() != 4 {
		t.Errorf("N = %d", s.N())
	}
	if s.Mean() != 2.5 {
		t.Errorf("Mean = %v", s.Mean())
	}
	if s.Percentile(0) != 1 || s.Percentile(100) != 4 {
		t.Errorf("P0/P100 = %v/%v", s.Percentile(0), s.Percentile(100))
	}
}

func TestSamplePercentile(t *testing.T) {
	var s Sample
	for i := 1; i <= 100; i++ {
		s.Add(float64(i))
	}
	cases := []struct{ p, want float64 }{
		{0, 1}, {100, 100}, {50, 50.5},
	}
	for _, c := range cases {
		if got := s.Percentile(c.p); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("P%v = %v, want %v", c.p, got, c.want)
		}
	}
	// Percentile must be monotone in p.
	prev := math.Inf(-1)
	for p := 0.0; p <= 100; p += 2.5 {
		v := s.Percentile(p)
		if v < prev {
			t.Fatalf("percentile not monotone at p=%v", p)
		}
		prev = v
	}
}

func TestSampleAddAfterPercentile(t *testing.T) {
	// Adding after a sorted read must keep statistics correct.
	var s Sample
	s.Add(5)
	_ = s.Percentile(50)
	s.Add(1)
	if s.Percentile(0) != 1 {
		t.Errorf("P0 after re-add = %v, want 1", s.Percentile(0))
	}
}

func TestSamplePercentileProperties(t *testing.T) {
	f := func(raw []float64) bool {
		var s Sample
		ok := false
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				continue
			}
			s.Add(x)
			ok = true
		}
		if !ok {
			return true
		}
		p50 := s.Percentile(50)
		return p50 >= s.Percentile(0) && p50 <= s.Percentile(100)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSampleMeanWithinBounds(t *testing.T) {
	f := func(raw []float64) bool {
		var s Sample
		n := 0
		for _, x := range raw {
			if math.IsNaN(x) || math.Abs(x) > 1e12 {
				continue
			}
			s.Add(x)
			n++
		}
		if n == 0 {
			return true
		}
		m := s.Mean()
		return m >= s.Percentile(0)-1e-6 && m <= s.Percentile(100)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("op", "Mb/s")
	tb.AddRow("Copy", 130.0)
	tb.AddRow("Checksum", 115.0)
	out := tb.String()
	if !strings.Contains(out, "Copy") || !strings.Contains(out, "130") {
		t.Errorf("table missing data:\n%s", out)
	}
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 { // header, rule, 2 rows
		t.Errorf("line count = %d, want 4:\n%s", len(lines), out)
	}
	// Columns should align: every line same width per column prefix.
	if len(lines[0]) == 0 || lines[1][0] != '-' {
		t.Errorf("missing header rule:\n%s", out)
	}
}

func TestTableCSV(t *testing.T) {
	tb := NewTable("a", "b")
	tb.AddRow(1, 2.5)
	csv := tb.CSV()
	want := "a,b\n1,2.50\n"
	if csv != want {
		t.Errorf("CSV = %q, want %q", csv, want)
	}
}

func TestFormatFloat(t *testing.T) {
	cases := []struct {
		in   float64
		want string
	}{
		{0, "0"},
		{12345, "12345"},
		{42.25, "42.2"},
		{3.14159, "3.14"},
		{0.12345, "0.1235"},
	}
	for _, c := range cases {
		if got := FormatFloat(c.in); got != c.want {
			t.Errorf("FormatFloat(%v) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestSampleAddDuration(t *testing.T) {
	var s Sample
	s.AddDuration(1500 * time.Millisecond)
	if s.Mean() != 1.5 {
		t.Errorf("Mean = %v, want 1.5", s.Mean())
	}
}
