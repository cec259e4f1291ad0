package telemetry

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/sim"
)

// ramp is the ASCII density ramp sparklines draw with, low to high.
const ramp = " .:-=+*#%@"

// WriteCSV renders the retained window as a wide CSV table: one row
// per tick (tick index, virtual seconds), one column per series in ID
// order. Series that appeared mid-window have empty cells before
// their birth. A nil recorder writes only the header.
func (r *Recorder) WriteCSV(w io.Writer) error {
	series := r.match("")
	var b strings.Builder
	b.WriteString("tick,time_s")
	for _, s := range series {
		b.WriteByte(',')
		// Commas inside IDs (multi-label series) would split the column.
		b.WriteString(strings.ReplaceAll(s.ID, ",", ";"))
	}
	b.WriteByte('\n')
	win := r.window()
	for j := 0; j < win; j++ {
		fmt.Fprintf(&b, "%d,%.6f", r.ticks-win+j+1, sim.Time(r.times.at(j)).Seconds())
		for _, s := range series {
			b.WriteByte(',')
			if sj := s.Len() - (win - j); sj >= 0 {
				fmt.Fprintf(&b, "%d", s.At(sj))
			}
		}
		b.WriteByte('\n')
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Sparkline renders the last width samples of a series as an ASCII
// density strip scaled to the window's min..max.
func Sparkline(s *Series, width int) string {
	if width <= 0 {
		width = 60
	}
	n := s.Len()
	if n == 0 {
		return ""
	}
	if n > width {
		n = width
	}
	lo, hi := bounds(s, s.Len()-n)
	var b strings.Builder
	for i := s.Len() - n; i < s.Len(); i++ {
		v := s.At(i)
		idx := 0
		if hi > lo {
			idx = int(int64(len(ramp)-1) * (v - lo) / (hi - lo))
		} else if v != 0 {
			idx = len(ramp) / 2
		}
		b.WriteByte(ramp[idx])
	}
	return b.String()
}

// bounds is the least and the greatest of s's samples from index from
// on.
func bounds(s *Series, from int) (lo, hi int64) {
	lo, hi = s.Last(), s.Last()
	for i := from; i < s.Len(); i++ {
		lo, hi = min(lo, s.At(i)), max(hi, s.At(i))
	}
	return lo, hi
}

// WriteSparklines renders every series whose ID contains filter ("" or
// "all" for everything) as labeled sparkline timelines over the
// retained window, followed by the incident log. width bounds the
// strip length (default 60).
func (r *Recorder) WriteSparklines(w io.Writer, filter string, width int) error {
	if width <= 0 {
		width = 60
	}
	series := r.match(filter)
	if r == nil || len(series) == 0 {
		_, err := fmt.Fprintf(w, "no recorded series match %q\n", filter)
		return err
	}
	var b strings.Builder
	win := r.window()
	if win == 0 { // bound, but no tick has fired yet
		fmt.Fprintf(&b, "flight record: 0 ticks (interval %v)\n", r.cfg.Interval)
		series = nil
	} else {
		fmt.Fprintf(&b, "flight record: %d ticks, %v .. %v (interval %v)\n",
			r.ticks, sim.Time(r.times.at(0)), sim.Time(r.times.at(win-1)), r.cfg.Interval)
	}
	idW := 0
	for _, s := range series {
		if len(s.ID) > idW {
			idW = len(s.ID)
		}
	}
	for _, s := range series {
		lo, hi := bounds(s, 0)
		fmt.Fprintf(&b, "%-*s |%s| min=%d max=%d last=%d (%s)\n",
			idW, s.ID, Sparkline(s, width), lo, hi, s.Last(), s.Kind)
	}
	r.incidentText(&b)
	_, err := io.WriteString(w, b.String())
	return err
}

// WriteIncidents renders the incident log, one line per incident.
func (r *Recorder) WriteIncidents(w io.Writer) error {
	var b strings.Builder
	r.incidentText(&b)
	_, err := io.WriteString(w, b.String())
	return err
}

func (r *Recorder) incidentText(b *strings.Builder) {
	if r == nil || len(r.incidents) == 0 {
		return
	}
	fmt.Fprintf(b, "incidents (%d", len(r.incidents))
	if r.incidentsDropped > 0 {
		fmt.Fprintf(b, ", %d older dropped", r.incidentsDropped)
	}
	b.WriteString("):\n")
	for _, inc := range r.incidents {
		target := inc.Series
		if target == "" {
			target = "-"
		}
		fmt.Fprintf(b, "  %12v  %-20s %s: %s\n", inc.At, inc.Detector, target, inc.Message)
	}
}
