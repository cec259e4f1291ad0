package telemetry

import (
	"encoding/json"
	"io"
	"os"
)

// DumpSeries is one series in a black-box dump. Samples are
// oldest-first and tail-aligned with TimesNS: the last sample
// corresponds to the last tick time, so a series that appeared
// mid-window simply has fewer samples.
type DumpSeries struct {
	ID      string  `json:"id"`
	Kind    string  `json:"kind"`
	Samples []int64 `json:"samples"`
}

// Dump is the machine-readable post-mortem a failing run leaves
// behind: the retained window of every recorded series plus the
// incident log.
type Dump struct {
	NowNS            int64        `json:"now_ns"`
	IntervalNS       int64        `json:"interval_ns"`
	Ticks            int          `json:"ticks"`
	Capacity         int          `json:"capacity"`
	TimesNS          []int64      `json:"times_ns"`
	Series           []DumpSeries `json:"series"`
	Incidents        []Incident   `json:"incidents"`
	IncidentsDropped int          `json:"incidents_dropped,omitempty"`
}

// Dump materializes the recorder state. A nil recorder returns an
// empty dump.
func (r *Recorder) Dump() *Dump {
	d := &Dump{}
	if r == nil {
		return d
	}
	d.NowNS = int64(r.lastAt)
	d.IntervalNS = int64(r.cfg.Interval)
	d.Ticks = r.ticks
	d.Capacity = capacity
	w := r.window()
	d.TimesNS = make([]int64, w)
	for i := 0; i < w; i++ {
		d.TimesNS[i] = r.times.at(i)
	}
	for _, s := range r.orderedSeries() {
		ds := DumpSeries{ID: s.ID, Kind: s.Kind.String(), Samples: make([]int64, s.Len())}
		for i := range ds.Samples {
			ds.Samples[i] = s.At(i)
		}
		d.Series = append(d.Series, ds)
	}
	d.Incidents = append(d.Incidents, r.incidents...)
	d.IncidentsDropped = r.incidentsDropped
	return d
}

// WriteDump serializes the dump as indented JSON. A nil recorder
// writes an empty dump, so failure paths need no nil guard.
func (r *Recorder) WriteDump(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Dump())
}

// WriteDumpFile writes the dump to path (0644, truncating).
func (r *Recorder) WriteDumpFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := r.WriteDump(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
