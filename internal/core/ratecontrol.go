package alf

// Closed-loop, rate-based transmission control (§3). The paper argues
// that a new generation of protocols should pace transmission by rate
// rather than by window, and that the control loop which *sets* the
// rate is a separable concern from error recovery. This file is that
// separable concern: the receiver periodically reports what the path
// actually delivered (see the feedback message in wire.go), and a
// pluggable RateController turns each report into the next pacing
// rate. The default is no controller at all — Config.RateBps stays a
// fixed, out-of-band knob exactly as before — so the closed loop is
// strictly opt-in.
//
// The same feedback also powers ADU-priority load shedding (§2, §5:
// the application, not the network, decides what survives overload):
// Send carries a Priority class, and when the pacer backlog or the
// smoothed loss fraction crosses the configured thresholds the sender
// sheds Droppable ADUs *before* transmission instead of letting the
// bottleneck queue tail-drop fragments blindly.

import "repro/internal/sim"

// Priority classifies an ADU for load shedding. Shedding is a
// sender-side decision made before packetization, which is the whole
// point — a shed ADU costs nothing downstream and consumes no ADU
// name. Critical is additionally marked on the wire (flagCritical) so
// custody relays can apply the same survivability ordering to their
// bounded stores.
type Priority uint8

const (
	// Standard ADUs are paced and recovered normally; they are never
	// shed before transmission.
	Standard Priority = iota
	// Critical ADUs are never shed, and their retransmissions bypass
	// the recovery-bandwidth cap: when the network cannot carry
	// everything, these are the ADUs the application says must survive.
	Critical
	// Droppable ADUs are shed before transmission while the sender is
	// overloaded (pacer backlog or reported loss above threshold).
	// SendClass returns ErrShed and the ADU consumes no name.
	Droppable
)

// String returns the priority class name.
func (p Priority) String() string {
	return enumName([]string{Standard: "standard", Critical: "critical", Droppable: "droppable"}, p, "invalid-priority")
}

// RateSample is one feedback interval's view of the path, assembled by
// the sender from the receiver's cumulative report (all counters are
// deltas since the previous report it processed).
type RateSample struct {
	// Interval is the virtual time since the previous report.
	Interval sim.Duration
	// SentBytes is the wire volume (fragment headers + payload,
	// retransmissions and parity included) the sender emitted in the
	// interval.
	SentBytes int64
	// RecvBytes is the wire volume the receiver accepted in the
	// interval, duplicates and late fragments included: what the
	// network actually carried.
	RecvBytes int64
	// DeliveredBytes is the verified ADU payload handed to the
	// receiving application in the interval — the stream's goodput.
	DeliveredBytes int64
	// LossFrac is 1 - RecvBytes/SentBytes clamped to [0, 1]: the
	// fraction of offered wire volume the path failed to deliver.
	// In-flight data skews a single sample; controllers should treat
	// small values as noise (see AIMD.LossThreshold).
	LossFrac float64
	// Backlog is the sender's current pacer backlog: how far in the
	// future the next fragment would be scheduled.
	Backlog sim.Duration
}

// RateController turns receiver feedback into pacing rates. Invoked
// once per accepted feedback report, on the simulation goroutine;
// implementations must not block and should not allocate.
type RateController interface {
	// OnFeedback returns the pacing rate (bits/s) to use from now on,
	// given the current rate and the latest interval sample. Returning
	// cur keeps the rate; the sender ignores non-positive returns.
	OnFeedback(cur float64, s RateSample) float64
}

// AIMD is a loss-driven additive-increase / multiplicative-decrease
// controller: when an interval's loss fraction crosses LossThreshold
// the rate is multiplied by Backoff, otherwise it grows by ProbeBps.
// The result is clamped to [Floor, Ceil]. Zero fields take the listed
// defaults, so AIMD{} is usable as-is.
type AIMD struct {
	// Floor is the minimum rate (default 128 kb/s). The floor keeps
	// the control loop alive: a stream paced to zero would never probe
	// and never recover.
	Floor float64
	// Ceil is the maximum rate (default: unbounded). Typically the
	// application's offered rate — there is no point pacing faster
	// than data is produced.
	Ceil float64
	// Backoff is the multiplicative decrease factor in (0, 1)
	// (default 0.5).
	Backoff float64
	// ProbeBps is the additive probe per loss-free report
	// (default 100 kb/s).
	ProbeBps float64
	// LossThreshold is the loss fraction above which a report counts
	// as congestion (default 0.02). Below it, residual line loss and
	// in-flight skew are treated as noise.
	LossThreshold float64
}

// WindowedRate is a model-based controller for paths where feedback
// ages faster than it travels: it paces from a windowed maximum of
// measured delivery rates instead of reacting to each report's loss
// fraction. AIMD collapses in the delay-tolerant regime — at a
// 16-minute RTT every report describes the path as it was many
// minutes ago, and one blackout-spanning report (huge apparent loss)
// triggers a multiplicative backoff that then needs hours of additive
// probing to undo. WindowedRate instead keeps a short window of
// delivery-rate samples (RecvBytes over the report interval — what
// the path demonstrably carried) and paces at a gain over the window
// maximum, BBR-style. Reports whose interval exceeds StaleAfter are
// treated as describing an outage, not the path: they are excluded
// from the model, so the estimate holds through a blackout and
// transmission resumes at the pre-blackout rate the moment the link
// heals. Zero fields take the listed defaults, so WindowedRate{} is
// usable as-is.
type WindowedRate struct {
	// Floor is the minimum rate (default 128 kb/s), same role as
	// AIMD.Floor: a stream paced to zero never measures anything.
	Floor float64
	// Ceil is the maximum rate (default: unbounded).
	Ceil float64
	// Window is how many fresh delivery samples the model keeps
	// (default 8, max 32). The estimate is the maximum over the
	// window, so one slow interval never drags the pace down.
	Window int
	// Gain scales the windowed estimate into a pacing rate
	// (default 1.0).
	Gain float64
	// ProbeGain replaces Gain on every ProbeEvery-th fresh sample
	// (default 1.25): the model can only learn a higher delivery rate
	// by occasionally offering one.
	ProbeGain float64
	// ProbeEvery is the probe cadence in fresh samples (default 6).
	ProbeEvery int
	// StaleAfter is the report-interval age beyond which a sample is
	// excluded from the model (default 0 = never stale). Set it to a
	// few feedback intervals: anything longer means reports stopped
	// flowing — a blackout, not a slower path.
	StaleAfter sim.Duration

	window [32]float64 // delivery-rate ring, model state
	n      int         // samples stored (<= effective Window)
	head   int         // next ring slot
	fresh  int         // fresh samples seen, drives the probe cadence
}

// OnFeedback folds one report into the delivery model and returns the
// paced rate. It never allocates.
func (w *WindowedRate) OnFeedback(cur float64, s RateSample) float64 {
	if s.Interval <= 0 {
		return cur
	}
	size := w.Window
	if size <= 0 {
		size = 8
	}
	size = min(size, len(w.window))
	stale := w.StaleAfter > 0 && s.Interval > w.StaleAfter
	if !stale {
		// Delivery rate the path demonstrated over this interval.
		rate := float64(s.RecvBytes) * 8 / s.Interval.Seconds()
		w.window[w.head] = rate
		w.head = (w.head + 1) % size
		if w.n < size {
			w.n++
		}
		w.fresh++
	}
	est := 0.0
	for i := 0; i < w.n; i++ {
		est = max(est, w.window[i])
	}
	if est <= 0 {
		// No model yet (or only stale reports so far): hold the
		// current rate rather than guess.
		return cur
	}
	gain := w.Gain
	if gain <= 0 {
		gain = 1.0
	}
	probeEvery := w.ProbeEvery
	if probeEvery <= 0 {
		probeEvery = 6
	}
	if !stale && w.fresh%probeEvery == 0 {
		probe := w.ProbeGain
		if probe <= 0 {
			probe = 1.25
		}
		gain = probe
	}
	return clampRate(gain*est, w.Floor, w.Ceil)
}

// clampRate holds a controller's next rate to [floor, ceil]: floor
// 128 kb/s when not positive, and no ceiling when ceil is not.
func clampRate(next, floor, ceil float64) float64 {
	if floor <= 0 {
		floor = 128e3
	}
	next = max(next, floor)
	if ceil > 0 {
		next = min(next, ceil)
	}
	return next
}

// OnFeedback applies one AIMD step.
func (a *AIMD) OnFeedback(cur float64, s RateSample) float64 {
	backoff := a.Backoff
	if backoff <= 0 || backoff >= 1 {
		backoff = 0.5
	}
	probe := a.ProbeBps
	if probe <= 0 {
		probe = 100e3
	}
	thresh := a.LossThreshold
	if thresh <= 0 {
		thresh = 0.02
	}
	next := cur + probe
	if s.LossFrac > thresh {
		next = cur * backoff
	}
	return clampRate(next, a.Floor, a.Ceil)
}
