package soak

import (
	"bytes"
	"fmt"
	"slices"

	alf "repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// This file is what the three families (chaos, overload, DTN) share.
// A family builds its topology and workload and states its policy —
// which ADUs may be lost — and leaves the accounting here.

// verdict is the invariant report embedded in every family's result.
type verdict struct {
	// Violations lists every invariant that broke, in the order found.
	Violations []string
}

// Passed reports whether every invariant held.
func (v *verdict) Passed() bool { return len(v.Violations) == 0 }

func (v *verdict) violatef(format string, args ...any) {
	v.Violations = append(v.Violations, fmt.Sprintf(format, args...))
}

// drain runs the rig to its horizon and then steps it until the event
// loop goes quiet on its own, taking the recorder's final post-drain
// sample. The allowance of virtual time past the horizon covers
// legitimate tail work (hold-time give-ups, OTP's dead fuse at
// ~FailThreshold x MaxRTO, hours of DTN give-up timers); events beyond
// it, or more than maxDrainEvents of them, are a recovery livelock.
func (v *verdict) drain(s *sim.Scheduler, horizon, allowance sim.Duration, rec *telemetry.Recorder) (events uint64, end sim.Time) {
	s.RunUntil(sim.Time(0).Add(horizon))
	maxVirtual := sim.Time(0).Add(horizon + allowance)
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
	rec.Sample()
	return s.Fired() - firedAtHorizon, s.Now()
}

// quiesced checks the end state after the drain: every stream's
// sender retains and paces nothing, its receiver holds and chases
// nothing, and every link is up with nothing queued or parked.
func (v *verdict) quiesced(net *netsim.Network, streams ...*ledger) {
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
	for _, l := range net.Links() {
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
	v        *verdict
	prefix   string // leads every violation: "alf: ", "stream 2: ", ""
	aduBytes int
	snd      *alf.Sender
	rcv      *alf.Receiver

	accepted  map[uint64]uint64 // wire name -> submission index
	delivered map[uint64]int
	lost      map[uint64]int
}

func newLedger(v *verdict, prefix string, aduBytes int, snd *alf.Sender, rcv *alf.Receiver) *ledger {
	return &ledger{v: v, prefix: prefix, aduBytes: aduBytes, snd: snd, rcv: rcv,
		accepted:  make(map[uint64]uint64),
		delivered: make(map[uint64]int),
		lost:      make(map[uint64]int)}
}

// accept records that the sender took submission k as wire name name.
func (l *ledger) accept(name, k uint64) { l.accepted[name] = k }

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
	if adu.Tag != aduTag(k) {
		l.v.violatef("%sADU %d delivered with tag %d, want %d", l.prefix, adu.Name, adu.Tag, aduTag(k))
	}
	if !bytes.Equal(adu.Data, aduPayload(k, l.aduBytes)) {
		l.v.violatef("%sADU %d delivered corrupted", l.prefix, adu.Name)
	}
	return true
}

// lose is the receiver's OnLost; it returns the submission behind the
// name, if the sender ever accepted one.
func (l *ledger) lose(name uint64) (k uint64, known bool) {
	l.lost[name]++
	k, known = l.accepted[name]
	return k, known
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
