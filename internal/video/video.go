// Package video is the paper's stream-data application (§5): each ADU
// is identified "with its location, both in space (where on the screen
// it goes) and in time (which video frame it is a part of)". Frames are
// split into slice ADUs named (frame, slice) through the ADU tag; the
// sink renders each frame at its playout deadline with whatever slices
// have arrived, and the source never retransmits (the NoRetransmit
// policy): late repair is useless to a real-time display.
package video

import (
	"fmt"
	"time"

	alf "repro/internal/core"
	"repro/internal/sim"
	"repro/internal/xcode"
)

// Tag packs a (frame, slice) pair into an ADU tag: the application
// name-space of the video stream.
func Tag(frame uint32, slice uint16) uint64 {
	return uint64(frame)<<16 | uint64(slice)
}

// SplitTag unpacks a video ADU tag.
func SplitTag(tag uint64) (frame uint32, slice uint16) {
	return uint32(tag >> 16), uint16(tag)
}

// SourceConfig parameterizes a synthetic video source.
type SourceConfig struct {
	// FPS is the frame rate (default 30).
	FPS float64
	// SlicesPerFrame is the number of ADUs per frame (default 8).
	SlicesPerFrame int
	// SliceBytes is the payload size of each slice ADU (default 1400).
	SliceBytes int
}

func (c *SourceConfig) fill() {
	if c.FPS == 0 {
		c.FPS = 30
	}
	if c.SlicesPerFrame == 0 {
		c.SlicesPerFrame = 8
	}
	if c.SliceBytes == 0 {
		c.SliceBytes = 1400
	}
}

// Period returns the inter-frame interval.
func (c SourceConfig) Period() sim.Duration {
	return sim.Duration(float64(time.Second) / c.FPS)
}

// Source emits synthetic frames on schedule over an ALF sender.
type Source struct {
	cfg   SourceConfig
	sched *sim.Scheduler
	snd   *alf.Sender

	frame   uint32
	limit   uint32
	started bool
	// FramesSent counts frames emitted.
	FramesSent int64
	// SendErrors counts slices the transport refused.
	SendErrors int64
}

// NewSource creates a video source bound to an ALF sender (the stream
// should use the NoRetransmit policy and a HoldTime near the playout
// delay, though the source works with any policy).
func NewSource(sched *sim.Scheduler, snd *alf.Sender, cfg SourceConfig) *Source {
	cfg.fill()
	return &Source{cfg: cfg, sched: sched, snd: snd}
}

// Start schedules the emission of nframes frames at the configured
// rate, beginning now.
func (s *Source) Start(nframes int) {
	if s.started {
		panic("video: source already started")
	}
	s.started = true
	s.limit = uint32(nframes)
	s.emit()
}

func (s *Source) emit() {
	if s.frame >= s.limit {
		return
	}
	f := s.frame
	s.frame++
	slice := make([]byte, s.cfg.SliceBytes)
	for i := 0; i < s.cfg.SlicesPerFrame; i++ {
		// Deterministic recognizable content: frame and slice stamped
		// through the payload.
		for j := range slice {
			slice[j] = byte(uint32(j) + f*31 + uint32(i)*7)
		}
		if _, err := s.snd.Send(Tag(f, uint16(i)), xcode.SyntaxRaw, slice); err != nil {
			s.SendErrors++
		}
	}
	s.FramesSent++
	s.sched.After(s.cfg.Period(), s.emit)
}

// FrameReport is the sink's verdict on one frame at its deadline.
type FrameReport struct {
	Frame    uint32
	Slices   int // slices present at the deadline
	Expected int
	Deadline sim.Time
	// Complete means every slice arrived in time.
	Complete bool
}

// String formats a report.
func (r FrameReport) String() string {
	return fmt.Sprintf("frame %d: %d/%d slices at %v", r.Frame, r.Slices, r.Expected, r.Deadline)
}

// SinkStats aggregates playout quality.
type SinkStats struct {
	FramesComplete int64 // all slices on time
	FramesPartial  int64 // rendered with missing slices
	FramesEmpty    int64 // nothing arrived by the deadline
	SlicesOnTime   int64
	SlicesLate     int64 // arrived after their frame rendered
}

// Sink consumes slice ADUs and renders frames at playout deadlines.
// Create it with the same SourceConfig as the sender and the stream
// start time (virtual) so deadlines line up.
type Sink struct {
	cfg    SourceConfig
	sched  *sim.Scheduler
	start  sim.Time
	delay  sim.Duration
	frames map[uint32]int // frame -> slices arrived (pre-deadline)
	done   map[uint32]bool

	// OnFrame, if set, receives every frame's report at its deadline.
	OnFrame func(FrameReport)

	Stats SinkStats
}

// NewSink creates a sink whose frame f deadline is
// start + f*period + playoutDelay.
func NewSink(sched *sim.Scheduler, start sim.Time, playoutDelay sim.Duration, cfg SourceConfig) *Sink {
	cfg.fill()
	return &Sink{
		cfg:    cfg,
		sched:  sched,
		start:  start,
		delay:  playoutDelay,
		frames: make(map[uint32]int),
		done:   make(map[uint32]bool),
	}
}

// HandleADU consumes one slice (wire it to alf.Receiver.OnADU).
func (k *Sink) HandleADU(adu alf.ADU) {
	frame, _ := SplitTag(adu.Tag)
	if k.done[frame] {
		k.Stats.SlicesLate++
		return
	}
	if _, seen := k.frames[frame]; !seen {
		k.armDeadline(frame)
	}
	k.frames[frame]++
	k.Stats.SlicesOnTime++
}

// HandleLoss consumes loss reports (wire it to alf.Receiver.OnLost);
// the sink needs nothing from them — the deadline renders regardless —
// but counting helps diagnostics.
func (k *Sink) HandleLoss(name uint64) {}

// armDeadline schedules the frame's render at its playout time.
func (k *Sink) armDeadline(frame uint32) {
	deadline := k.start.Add(sim.Duration(frame) * k.cfg.Period()).Add(k.delay)
	now := k.sched.Now()
	wait := deadline.Sub(now)
	if wait < 0 {
		wait = 0
	}
	k.sched.After(wait, func() { k.render(frame) })
}

func (k *Sink) render(frame uint32) {
	if k.done[frame] {
		return
	}
	k.done[frame] = true
	got := k.frames[frame]
	delete(k.frames, frame)
	switch {
	case got == k.cfg.SlicesPerFrame:
		k.Stats.FramesComplete++
	case got > 0:
		k.Stats.FramesPartial++
	default:
		k.Stats.FramesEmpty++
	}
	if k.OnFrame != nil {
		k.OnFrame(FrameReport{
			Frame: frame, Slices: got, Expected: k.cfg.SlicesPerFrame,
			Deadline: k.sched.Now(), Complete: got == k.cfg.SlicesPerFrame,
		})
	}
}

// FlushAll renders every frame up to limit that never got a deadline
// (frames whose slices were all lost). Call after the simulation
// settles to account for wholly-lost frames.
func (k *Sink) FlushAll(limit uint32) {
	for f := uint32(0); f < limit; f++ {
		if !k.done[f] {
			k.render(f)
		}
	}
}
