package stats

import (
	"strings"
	"testing"
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
