package soak

import (
	"bytes"
	"fmt"
	"slices"

	alf "repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/tracing"
	"repro/internal/xcode"
)

// This file is what the four families (chaos, overload, DTN, UDP) share.
// A family builds its topology and workload and states its policy —
// which ADUs may be lost — and leaves the accounting here. The three
// simulated families also share one rig: clock, network, planes,
// submission schedule and the drain-and-check tail.

// Planes are the observation planes a simulated family is wired into.
// Each is optional.
type Planes struct {
	// Metrics, if non-nil, wires every layer of the rig into the
	// registry so a caller (cmd/alfchaos) can print the full tree.
	Metrics *metrics.Registry
	// Tracer, if non-nil, records the whole run as per-ADU lifecycle
	// spans (endpoints, every link, every fault window), so a violating
	// run can be dumped as a timeline. It is bound to the run's clock.
	Tracer *tracing.Tracer
	// Recorder, if non-nil, flight-records the run: it is bound to the
	// run's clock and registry (a registry is created when Metrics is
	// nil), sampled every Recorder interval to the horizon plus once
	// after the drain, and stamped with a "soak" incident per invariant
	// violation — the black-box a failing run leaves behind.
	Recorder *telemetry.Recorder
}

// verdict is the invariant report embedded in every family's result.
type verdict struct {
	// Violations lists every invariant that broke, in the order found.
	Violations []string
	// DrainEvents and EndVirtual say how the simulated families' event
	// loop went quiet after the horizon: how many events fired past it
	// and when the last one did (zero for the wall-clock family).
	DrainEvents uint64
	EndVirtual  sim.Time
}

// Passed reports whether every invariant held.
func (v *verdict) Passed() bool { return len(v.Violations) == 0 }

func (v *verdict) violatef(format string, args ...any) {
	v.Violations = append(v.Violations, fmt.Sprintf(format, args...))
}

// rig is one simulated run: its clock and network, bound to the
// caller's planes, the streams it carries, and the verdict they feed.
type rig struct {
	Planes
	v       *verdict
	s       *sim.Scheduler
	net     *netsim.Network
	horizon sim.Duration
	streams []*ledger
}

func newRig(v *verdict, p Planes, seed int64, horizon sim.Duration) *rig {
	if p.Recorder != nil && p.Metrics == nil {
		p.Metrics = metrics.New() // the recorder needs series to sample
	}
	s := sim.NewScheduler()
	p.Tracer.Bind(s) // the run's clock did not exist when the caller made it
	p.Recorder.Bind(s, p.Metrics, sim.Time(0).Add(horizon))
	net := netsim.New(s, seed)
	net.SetMetrics(p.Metrics)
	net.SetTracer(p.Tracer)
	return &rig{Planes: p, v: v, s: s, net: net, horizon: horizon}
}

// connect opens an ALF stream from src to dst on the rig's planes and
// opens its ledger, whose violations lead with prefix. The receiver
// reports to the ledger until the family states another policy.
func (r *rig) connect(prefix string, aduBytes int, src, dst *netsim.Node, out, back *netsim.Link, cfg alf.Config) (*ledger, error) {
	cfg.Metrics, cfg.Tracer = r.Metrics, r.Tracer
	snd, rcv, err := alf.Connect(r.s, src, dst, out, back, cfg)
	if err != nil {
		return nil, err
	}
	l := newLedger(r.v, prefix, []int{aduBytes}, snd, rcv)
	rcv.OnADU = func(adu alf.ADU) { l.deliver(adu) }
	rcv.OnLost = func(name uint64) { l.lose(name) }
	r.streams = append(r.streams, l)
	return l, nil
}

// offer schedules n submissions on l: submission k at offset at(k) of
// the run, in class(k) (nil submits every ADU Standard).
func (r *rig) offer(l *ledger, n int, at func(k int) sim.Duration, class func(k uint64) alf.Priority) {
	for i := 0; i < n; i++ {
		k, c := uint64(i), alf.Standard
		if class != nil {
			c = class(k)
		}
		r.s.After(at(i), func() { l.submit(k, c) })
	}
}

// finish is every simulated family's tail. It runs the rig to its
// horizon and drains it (allowance is the virtual time legitimate tail
// work may take past the horizon), then lets settle classify the
// streams, checks that the rig quiesced, lets check add the family's
// end-state checks, and stamps every violation into the flight record.
func (r *rig) finish(allowance sim.Duration, settle, check func()) {
	r.drain(allowance)
	settle()
	r.v.quiesced(r.net.Links(), r.streams...)
	check()
	for _, msg := range r.v.Violations {
		r.Recorder.Note("soak", "", "%s", msg)
	}
}

// drain runs the rig to its horizon and then steps it until the event
// loop goes quiet on its own, taking the recorder's final post-drain
// sample. The allowance of virtual time past the horizon covers
// legitimate tail work (hold-time give-ups, OTP's dead fuse at
// ~FailThreshold x MaxRTO, hours of DTN give-up timers); events beyond
// it, or more than maxDrainEvents of them, are a recovery livelock.
func (r *rig) drain(allowance sim.Duration) {
	s, v := r.s, r.v
	s.RunUntil(sim.Time(0).Add(r.horizon))
	maxVirtual := sim.Time(0).Add(r.horizon + allowance)
	firedAtHorizon := s.Fired()
	const maxDrainEvents = 5_000_000
	for s.Step() {
		if s.Now() > maxVirtual {
			v.violatef("livelock: events still firing at %v, %d past the horizon",
				s.Now(), s.Fired()-firedAtHorizon)
			break
		}
		if s.Fired()-firedAtHorizon > maxDrainEvents {
			v.violatef("livelock: %d drain events without quiescence",
				s.Fired()-firedAtHorizon)
			break
		}
	}
	r.Recorder.Sample()
	v.DrainEvents, v.EndVirtual = s.Fired()-firedAtHorizon, s.Now()
}

// quiesced checks the end state after the drain: every stream's
// sender retains and paces nothing, its receiver holds and chases
// nothing, and every simulated link is up with nothing queued or
// parked.
func (v *verdict) quiesced(links []*netsim.Link, streams ...*ledger) {
	for _, l := range streams {
		if n := l.snd.BufferedADUs(); n != 0 {
			v.violatef("%s%d ADUs still retained after drain", l.prefix, n)
		}
		if b := l.snd.Backlog(); b != 0 {
			v.violatef("%spacer still %v backlogged after drain", l.prefix, b)
		}
		if n := l.rcv.Pending(); n != 0 {
			v.violatef("%s%d partial ADUs still held after drain", l.prefix, n)
		}
		if n := l.rcv.Missing(); n != 0 {
			v.violatef("%s%d ADUs still tracked missing after drain", l.prefix, n)
		}
	}
	for _, l := range links {
		from, to := l.From().Name(), l.To().Name()
		if l.Down() {
			v.violatef("faults: link %s->%s left down", from, to)
		}
		if q := l.QueueLen(); q != 0 {
			v.violatef("netsim: link %s->%s still queues %d packets after drain", from, to, q)
		}
		if h := l.HeldLen(); h != 0 {
			v.violatef("netsim: link %s->%s still holds %d packets", from, to, h)
		}
	}
}

// aduPayload is the deterministic per-submission payload pattern;
// delivery verifies against it byte for byte, so any corruption or
// cross-ADU mixup is caught without storing submitted copies.
func aduPayload(k uint64, n int) []byte {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte(uint64(i)*167 + k*59 + 13)
	}
	return b
}

// aduTag is the deterministic tag for submission k.
func aduTag(k uint64) uint64 { return k*2654435761 + 7 }

// ledger is one ALF stream's exactly-once account: which submissions
// the sender accepted under which wire names, and what the receiver
// then told the application about each name. (A sender that sheds
// consumes no name for a shed ADU, so wire names and submission order
// diverge under load — exactly when verification matters.)
type ledger struct {
	v      *verdict
	prefix string // leads every violation: "alf: ", "stream 2: ", ""
	sizes  []int  // submission k carries sizes[k mod len] bytes
	snd    *alf.Sender
	rcv    *alf.Receiver

	accepted  map[uint64]uint64 // wire name -> submission index
	delivered map[uint64]int
	lost      map[uint64]int

	submitted, shed int   // submit calls, and Droppables shed among them
	good            int   // first deliveries of accepted ADUs (goodput)
	goodBytes       int64 // their payload bytes
	lostCalls       int   // OnLost reports, repeats included
	criticalLost    int   // of those, reports of a Critical ADU
}

func newLedger(v *verdict, prefix string, sizes []int, snd *alf.Sender, rcv *alf.Receiver) *ledger {
	return &ledger{v: v, prefix: prefix, sizes: sizes, snd: snd, rcv: rcv,
		accepted:  make(map[uint64]uint64),
		delivered: make(map[uint64]int),
		lost:      make(map[uint64]int)}
}

// payload is submission k's bytes.
func (l *ledger) payload(k uint64) []byte {
	return aduPayload(k, l.sizes[k%uint64(len(l.sizes))])
}

// accept records that the sender took submission k as wire name name.
func (l *ledger) accept(name, k uint64) { l.accepted[name] = k }

// submit offers submission k to the sender in class and records what
// became of it: accepted under a wire name, shed (a Droppable the
// sender refused under load), or a violation. It reports whether the
// sender took it.
func (l *ledger) submit(k uint64, class alf.Priority) bool {
	l.submitted++
	name, err := l.snd.SendClass(aduTag(k), xcode.SyntaxRaw, l.payload(k), class)
	switch {
	case err == nil:
		l.accept(name, k)
		return true
	case err == alf.ErrShed && class == alf.Droppable:
		l.shed++
	default:
		l.v.violatef("%sSend(%d) failed: %v", l.prefix, k, err)
	}
	return false
}

// deliver is the receiver's OnADU. It reports whether this is the
// first delivery of an accepted ADU — the one a family counts as
// goodput.
func (l *ledger) deliver(adu alf.ADU) bool {
	l.delivered[adu.Name]++
	k, known := l.accepted[adu.Name]
	if !known {
		l.v.violatef("%sADU %d delivered but never accepted", l.prefix, adu.Name)
		return false
	}
	if l.delivered[adu.Name] > 1 {
		return false // settle reports it, once, with the final count
	}
	l.good++
	l.goodBytes += int64(len(adu.Data))
	if adu.Tag != aduTag(k) {
		l.v.violatef("%sADU %d delivered with tag %d, want %d", l.prefix, adu.Name, adu.Tag, aduTag(k))
	}
	if !bytes.Equal(adu.Data, l.payload(k)) {
		l.v.violatef("%sADU %d delivered corrupted", l.prefix, adu.Name)
	}
	return true
}

// lose is the receiver's OnLost; it returns the submission behind the
// name, if the sender ever accepted one.
func (l *ledger) lose(name uint64) (k uint64, known bool) {
	l.lost[name]++
	l.lostCalls++
	k, known = l.accepted[name]
	return k, known
}

// aduClass is the deterministic priority mix: per ten ADUs, one
// Critical, three Standard, six Droppable — a control/keyframe/filler
// split. Both submission and loss accounting derive class from the
// submission index alone.
func aduClass(k uint64) alf.Priority {
	switch k % 10 {
	case 0:
		return alf.Critical
	case 1, 2, 3:
		return alf.Standard
	default:
		return alf.Droppable
	}
}

// protectCritical is the overload and DTN loss policy: the receiver
// may give up on any ADU but a Critical one; losing one of those is a
// violation, "lost <where>".
func (l *ledger) protectCritical(where string) {
	l.rcv.OnLost = func(name uint64) {
		if k, known := l.lose(name); known && aduClass(k) == alf.Critical {
			l.criticalLost++
			l.v.violatef("%sCritical ADU %d lost %s", l.prefix, name, where)
		}
	}
}

// names returns the accepted wire names in ascending order.
func (l *ledger) names() []uint64 {
	names := make([]uint64, 0, len(l.accepted))
	for name := range l.accepted {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

// settle classifies every accepted ADU after the drain and returns the
// names whose accounting broke: delivered twice, reported lost twice,
// or both delivered and lost — never legitimate. With accountAll an
// ADU that was neither delivered nor reported lost is broken too; a
// family that tolerates silent loss of some classes passes false and
// checks the classes it protects itself.
func (l *ledger) settle(accountAll bool) (broken []uint64) {
	for _, name := range l.names() {
		d, lo := l.delivered[name], l.lost[name]
		switch {
		case d > 1:
			l.v.violatef("%sADU %d delivered %d times", l.prefix, name, d)
		case lo > 1:
			l.v.violatef("%sADU %d reported lost %d times", l.prefix, name, lo)
		case d == 1 && lo == 1:
			l.v.violatef("%sADU %d both delivered and reported lost", l.prefix, name)
		case d == 0 && lo == 0 && accountAll:
			l.v.violatef("%sADU %d unaccounted for (neither delivered nor lost)", l.prefix, name)
		default:
			continue
		}
		broken = append(broken, name)
	}
	return broken
}
