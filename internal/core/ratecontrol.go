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
	// small values as noise (see aimdLossThreshold).
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
// controller: when an interval's loss fraction crosses
// aimdLossThreshold the rate is multiplied by aimdBackoff, otherwise it
// grows by ProbeBps. The result is clamped to [Floor, Ceil]. Zero
// fields take the listed defaults, so AIMD{} is usable as-is.
type AIMD struct {
	// Floor is the minimum rate (default 128 kb/s). The floor keeps
	// the control loop alive: a stream paced to zero would never probe
	// and never recover.
	Floor float64
	// Ceil is the maximum rate (default: unbounded). Typically the
	// application's offered rate — there is no point pacing faster
	// than data is produced.
	Ceil float64
	// ProbeBps is the additive probe per loss-free report
	// (default 100 kb/s).
	ProbeBps float64
}

// AIMD's fixed parameters: the multiplicative decrease, and the loss
// fraction above which a report counts as congestion. Below it, residual
// line loss and in-flight skew are treated as noise.
const (
	aimdBackoff       = 0.5
	aimdLossThreshold = 0.02
)

// WindowedRate is a model-based controller for paths where feedback
// ages faster than it travels: it paces from a windowed maximum of
// measured delivery rates instead of reacting to each report's loss
// fraction. AIMD collapses in the delay-tolerant regime — at a
// 16-minute RTT every report describes the path as it was many
// minutes ago, and one blackout-spanning report (huge apparent loss)
// triggers a multiplicative backoff that then needs hours of additive
// probing to undo. WindowedRate instead keeps a short window of
// windowSamples delivery-rate samples (RecvBytes over the report
// interval — what the path demonstrably carried) and paces at their
// maximum, BBR-style, so one slow interval never drags the pace down;
// every windowProbeEvery-th fresh sample it offers windowProbeGain
// times that, since the model can only learn a higher delivery rate by
// occasionally offering one. Reports whose interval exceeds StaleAfter
// are treated as describing an outage, not the path: they are excluded
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
	// StaleAfter is the report-interval age beyond which a sample is
	// excluded from the model (default 0 = never stale). Set it to a
	// few feedback intervals: anything longer means reports stopped
	// flowing — a blackout, not a slower path.
	StaleAfter sim.Duration

	window [windowSamples]float64 // delivery-rate ring, model state
	n      int                    // samples stored
	head   int                    // next ring slot
	fresh  int                    // fresh samples seen, drives the probe cadence
}

// WindowedRate's fixed parameters: the samples its window keeps, and
// its probe's gain and cadence in fresh samples.
const (
	windowSamples    = 8
	windowProbeGain  = 1.25
	windowProbeEvery = 6
)

// OnFeedback folds one report into the delivery model and returns the
// paced rate. It never allocates.
func (w *WindowedRate) OnFeedback(cur float64, s RateSample) float64 {
	if s.Interval <= 0 {
		return cur
	}
	stale := w.StaleAfter > 0 && s.Interval > w.StaleAfter
	if !stale {
		// Delivery rate the path demonstrated over this interval.
		rate := float64(s.RecvBytes) * 8 / s.Interval.Seconds()
		w.window[w.head] = rate
		w.head = (w.head + 1) % windowSamples
		if w.n < windowSamples {
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
	if !stale && w.fresh%windowProbeEvery == 0 {
		est *= windowProbeGain
	}
	return clampRate(est, w.Floor, w.Ceil)
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
	probe := a.ProbeBps
	if probe <= 0 {
		probe = 100e3
	}
	next := cur + probe
	if s.LossFrac > aimdLossThreshold {
		next = cur * aimdBackoff
	}
	return clampRate(next, a.Floor, a.Ceil)
}
