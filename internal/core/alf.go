// Package alf implements Application Level Framing — the paper's key
// architectural principle (§5, §7) — as a transport whose unit of
// transfer, manipulation, and error recovery is the Application Data
// Unit (ADU), not the packet or the byte stream.
//
// ADUs carry a sender-assigned sequential name and an opaque
// application tag (the "higher-level name-space in which ADUs are
// named": a file offset, a (frame, slice) pair, an RPC call id).
// Complete ADUs are delivered to the application as soon as they
// arrive, out of order with respect to other ADUs — a lost packet never
// stalls the presentation pipeline behind it.
//
// Receive processing is the paper's two-stage structure (§6):
//
//   - Stage one, per arriving fragment: control only (demultiplex,
//     locate the fragment's slot) plus one fused data pass that copies
//     the fragment into place, decrypts it (position-addressable
//     keystream, so any fragment order works), and accumulates the
//     ADU's checksum — internal/ilp kernels, one load and one store per
//     word.
//   - Stage two, on ADU completion: fold the checksum, and hand the
//     whole ADU to the application (which may then run presentation
//     conversion, also out of order).
//
// Loss recovery is application-directed (§5 "the manner of coping with
// data loss is highly dependent on the needs of the application"):
//
//   - SenderBuffered: the transport keeps a ciphertext copy and
//     retransmits whole ADUs on NACK (the classic transport model).
//   - AppRecompute: the transport buffers nothing; on NACK it asks the
//     sending application to regenerate the ADU.
//   - NoRetransmit: losses are reported to the receiving application
//     and skipped (real-time delivery).
//
// Losses are always expressed in ADU names — terms meaningful to the
// application — never in byte offsets.
//
// For large flow populations, Sharded scales the same endpoints out
// (§7): flows hash over per-shard schedulers, buffer arenas, and
// trunks, and the shards share nothing, so each runs alone to
// quiescence on a pool of workers. ADUs carry enough information to
// control their own delivery, so no serializing hot spot connects the
// shards, and the worker count executing them cannot change results —
// only wall-clock. See docs/SCALING.md and ExampleSharded.
package alf

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/buf"
	"repro/internal/cipher"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/tracing"
	"repro/internal/wire"
	"repro/internal/xcode"
)

// HeaderSize is the DATA fragment header length (see internal/wire for
// the layout); Config.MTU counts it.
const HeaderSize = wire.HeaderSize

// Policy selects the loss-recovery scheme for a stream (§5).
type Policy uint8

const (
	// SenderBuffered keeps a copy at the sending transport and resends
	// whole ADUs when the receiver reports them missing.
	SenderBuffered Policy = iota + 1
	// AppRecompute asks the sending application (via Sender.OnResend)
	// to regenerate a missing ADU; the transport buffers nothing.
	AppRecompute
	// NoRetransmit never recovers: the receiver reports the loss to its
	// application (via Receiver.OnLost) and moves on.
	NoRetransmit
)

var policyNames = []string{SenderBuffered: "sender-buffered", AppRecompute: "app-recompute", NoRetransmit: "no-retransmit"}

// String returns the policy name.
func (p Policy) String() string { return enumName(policyNames, p, "invalid-policy") }

// Set makes p the policy String names s, so a *Policy is a flag.Value.
func (p *Policy) Set(s string) error {
	if i := slices.Index(policyNames, s); i > 0 {
		*p = Policy(i)
		return nil
	}
	return fmt.Errorf("unknown policy %q", s)
}

// enumName is names[v], or invalid where names has none: how this
// package's enumerations print.
func enumName[T ~uint8](names []string, v T, invalid string) string {
	if int(v) < len(names) && names[v] != "" {
		return names[v]
	}
	return invalid
}

// ADU is a received Application Data Unit.
type ADU struct {
	// Name is the sender-assigned sequential identity of this ADU
	// within its stream. Losses are reported in these terms.
	Name uint64
	// Tag is the application's own naming information, carried opaquely
	// (e.g. destination file offset, (frame<<32)|slice, RPC id).
	Tag uint64
	// Syntax identifies the transfer syntax of Data.
	Syntax xcode.SyntaxID
	// Data is the complete ADU payload (plaintext). The receiver
	// transfers ownership to the application. The backing store is a
	// pooled reassembly buffer: an application that is done with the
	// bytes may call Release to recycle it, or simply keep the slice
	// forever (the pool never reclaims a buffer that is not released).
	Data []byte

	ref *buf.Ref // pooled backing store of Data; nil after Release
}

// Release returns the ADU's pooled reassembly buffer for reuse. Data
// (and anything aliasing it) is invalid afterwards. Optional: an ADU
// that is never released is simply garbage-collected like any slice,
// but a steady-state consumer that releases keeps the datapath
// allocation-free. Releasing twice is a no-op. Release on the goroutine
// that runs the receiver's scheduler, which owns the pool (internal/buf).
func (a *ADU) Release() {
	if a.ref != nil {
		a.ref.Release()
		a.ref = nil
		a.Data = nil
	}
}

// Errors. Test with errors.Is.
var (
	ErrADUTooLarge = errors.New("alf: ADU exceeds MaxADU")
	ErrBufferLimit = errors.New("alf: sender retention buffer full")
	ErrBadHeader   = wire.ErrBadHeader
	ErrWrongStream = errors.New("alf: fragment for another stream")
	ErrMTUTooSmall = errors.New("alf: MTU leaves no fragment payload")
	// ErrInconsistent refuses, before it makes any state, a fragment off
	// the stream's grid (Config) or at odds with earlier ones of its ADU.
	ErrInconsistent = errors.New("alf: fragment off the stream's grid or disagreeing with earlier fragments of the same ADU")
	// ErrConfig wraps every constructor-time configuration rejection,
	// and SendClass's refusal of a sender whose SendRef is not set; the
	// message names the offending field and value.
	ErrConfig = errors.New("alf: invalid config")
	// ErrShed is returned by SendClass when a Droppable ADU is shed
	// before transmission under overload. The ADU consumed no name and
	// nothing reached the wire; the application decides whether to
	// retry, downgrade, or move on (§5).
	ErrShed = errors.New("alf: droppable ADU shed under overload")
	// ErrAuthFail is returned by Receiver.HandlePacket when a SuiteAEAD
	// fragment's Poly1305 tag does not verify. The fragment is treated
	// as lost: nothing is accounted and recovery re-requests the range.
	ErrAuthFail = errors.New("alf: fragment failed authentication")
)

// nameWindow bounds how far ahead of the settled frontier an arriving
// ADU name may claim to be. Headers are protected by a 16-bit checksum,
// so one in ~65k corrupted headers survives verification; without this
// bound a surviving garbage name would have the receiver record an
// astronomically large gap.
const nameWindow = 1 << 20

// Config parameterizes one stream. Give both ends the same Config; MTU
// and FECGroup they must share, as they fix the stream's grid: fragment
// k of an ADU is the k-th fragment payload's worth (MTU), a parity
// starts its FEC group, and a receiver refuses a fragment off the grid
// (ErrInconsistent). Zero fields take defaults.
type Config struct {
	// StreamID demultiplexes streams sharing a node.
	StreamID byte
	// MTU is the maximum wire fragment size including the ALF header
	// (default 1024+HeaderSize). The fragment payload is MTU less
	// HeaderSize and the suite's tag (wire.TagSize under SuiteAEAD),
	// rounded down to a multiple of 8.
	MTU int
	// RateBps paces fragment emission (0 = unpaced). Rate negotiation
	// is out-of-band by design (§3): call Sender.SetRate at any time.
	RateBps float64
	// Policy selects loss recovery (default SenderBuffered).
	Policy Policy
	// Key is the stream key of an enciphering Suite: non-zero under
	// SuiteScramble and SuiteAEAD, zero under SuiteNone (Validate rejects
	// a key that no cipher would use rather than send cleartext
	// silently). Each ADU is enciphered under (Key, Name) with a
	// position-addressable keystream, so ADUs and fragments decrypt in
	// any order. Under SuiteAEAD the 256-bit ChaCha20 key is expanded
	// from this seed (cipher.ExpandKey).
	Key uint64
	// Suite selects the cipher stage; the zero value is SuiteNone,
	// cleartext. SuiteAEAD switches the datapath to fused
	// ChaCha20-Poly1305: fragments carry a 16-byte tag after the
	// ciphertext, the tag replaces the Internet checksum as the
	// integrity pass, and corrupt fragments are dropped and recovered
	// like losses. Both ends must agree: a receiver drops every fragment
	// whose header names another suite.
	Suite CipherSuite
	// NackDelay is the longest the receiver waits after first noticing
	// a gap before requesting recovery, to let reordering settle
	// (default 20 ms). Once a resend has measured the repair round
	// trip, the first request goes that round trip after later traffic
	// proved the name lost if sooner, but not before NackDelay/2; before
	// any measurement, and for repeats (NackDelay<<n), NackDelay rules.
	NackDelay sim.Duration
	// NackInterval is the receiver's scan period for gaps and repeat
	// NACKs (default 20 ms); a first request due sooner on evidence
	// brings the next scan forward.
	NackInterval sim.Duration
	// HoldTime bounds how long the receiver waits for an ADU before
	// declaring it lost to the application (default 2 s; NoRetransmit
	// streams typically set this near the playout deadline).
	HoldTime sim.Duration
	// MaxNacks bounds recovery attempts per ADU (default 10).
	MaxNacks int
	// MaxADU bounds a single ADU (default 16 MiB).
	MaxADU int
	// BufferLimit bounds sender retention under SenderBuffered
	// (default 64 MiB of payload).
	BufferLimit int
	// HeartbeatInterval is how often the sender declares the extent of
	// the stream while deliveries are unconfirmed, so a receiver can
	// detect tail loss (default = NackInterval).
	HeartbeatInterval sim.Duration
	// HeartbeatMaxInterval caps the heartbeat backoff: during silence
	// (consecutive heartbeats with no receiver progress) the interval
	// doubles from HeartbeatInterval up to this cap, with deterministic
	// ±25% jitter so a fleet of streams does not probe a healing path in
	// lockstep (default max(1s, HeartbeatInterval)).
	HeartbeatMaxInterval sim.Duration
	// HeartbeatLimit bounds consecutive heartbeats without receiver
	// progress before the sender stops trying (default 200). It exists
	// so a dead path eventually goes quiet. With backoff, 200 misses
	// against a 1 s cap means a dead path is probed for minutes, not
	// seconds, before the sender gives up.
	HeartbeatLimit int
	// ADUDeadline, when non-zero, bounds how long a SenderBuffered
	// stream retains an unconfirmed ADU: past the deadline the copy is
	// shed (OnExpire, then OnRelease) and later NACKs for it go
	// unfilled. This is the give-up point that keeps sender retention
	// bounded during a sustained blackout — the application decided how
	// stale its data may usefully be (§5). Zero retains until the
	// receiver confirms or BufferLimit pushes back.
	ADUDeadline sim.Duration
	// FECGroup enables forward error correction on ADU sub-units
	// (paper footnote 10): after every FECGroup data fragments of an
	// ADU, the sender emits one XOR parity fragment, letting the
	// receiver reconstruct any single lost fragment per group without a
	// retransmission round trip. Zero disables FEC. The bandwidth
	// overhead is 1/FECGroup.
	FECGroup int
	// Metrics, if non-nil, registers this endpoint's event counters
	// (views over Sender.Stats/Receiver.Stats), buffer gauges, ADU
	// size histograms, and the receiver's ADU-latency histogram with
	// the unified registry, labeled stream=<StreamID>. A nil registry
	// costs one branch per event (see internal/metrics).
	Metrics *metrics.Registry
	// Tracer, if non-nil, records this endpoint's per-ADU lifecycle
	// events (submit, fragment tx/rx, NACKs, delivery/loss/expiry)
	// with the span recorder. A nil tracer costs one branch per event
	// (see internal/tracing).
	Tracer *tracing.Tracer
	// Pool supplies the pooled buffers the datapath runs on: the
	// sender's wire fragments (with header headroom), FEC parity
	// accumulators, and the receiver's reassembly buffers. Default
	// buf.Default, shared with netsim so the recycling loop closes end
	// to end.
	Pool *buf.Pool

	// encap, when non-empty, is an encapsulation prefix stamped in front
	// of the ALF header on every data-plane wire packet the sender emits —
	// the hook the sharded endpoint's demultiplexer (Sharded.AddFlow sets
	// the flow's 8-byte label, its index in its shard's flow table, here)
	// uses to route packets without parsing ALF headers. The prefix is
	// written once at stamp time into the same pooled buffer (headroom is
	// reserved during packetization), so retransmissions of retained
	// fragments carry it for free and the zero-copy path stays intact. The
	// outer layer must strip the prefix before Receiver.HandlePacket; the
	// receiver adds len(encap) back per accepted packet when accounting
	// WireBytes so the sender's feedback loop sees consistent byte counts.
	// encap rides outside the MTU budget. Both endpoints put it in front
	// of their control frames too (heartbeats, CTRL, FB), so the outer
	// layer's control hooks can be one per shard.
	encap []byte

	// FeedbackInterval, when non-zero, has the receiver periodically
	// report cumulative delivery counters (wire bytes accepted, verified
	// payload delivered) on the control channel — the measurement half
	// of the §3 rate-based control loop. Zero disables feedback (the
	// pre-existing open-loop behavior). The report timer runs only
	// while the stream is active and stops on its own when the stream
	// goes idle, so an idle receiver leaves the event loop quiescent.
	FeedbackInterval sim.Duration
	// Controller, when non-nil, closes the loop: each accepted feedback
	// report is turned into a RateSample and the controller's answer
	// replaces the pacing rate (Sender.SetRate under the hood, no
	// longer blind). Nil keeps Config.RateBps fixed. Requires
	// FeedbackInterval > 0 (enforced by Validate) and RateBps > 0 —
	// an unpaced stream has no rate to control.
	Controller RateController
	// ShedBacklog is the pacer-backlog threshold beyond which Droppable
	// ADUs are shed before transmission (default 100 ms). The backlog
	// is how far in the future the pacer would schedule the next
	// fragment; a deep backlog means the application is offering more
	// than the current rate carries.
	ShedBacklog sim.Duration
	// ShedLossFrac sheds Droppable ADUs while the smoothed reported
	// loss fraction (EWMA over feedback reports) exceeds it
	// (default 0.25). Only meaningful with FeedbackInterval set.
	ShedLossFrac float64
	// Custody opts the sender into DTN-style custody transfer: a
	// downstream store-and-forward relay (internal/relay) that has a
	// complete copy of an ADU sends a custody-ack frame, and the sender
	// releases its retained copy and stops answering NACKs for that
	// name — recovery responsibility has moved one hop downstream.
	// This trades end-to-end retention for bounded buffers at
	// interplanetary delays: without custody, a sender facing a 40-min
	// blackout either holds gigabytes or blows ADUDeadline. Off by
	// default because releasing before end-to-end confirmation is a
	// semantic change the application must ask for.
	Custody bool
	// suite is Suite's row of the cipher-suite table (crypto.go), aeadKey
	// the ChaCha20 key expanded from Key and grid the fragment geometry;
	// prepare sets all three, so the per-fragment path neither looks a
	// suite up, re-expands a key nor re-derives the grid.
	suite   *suiteOps
	aeadKey cipher.Key
	grid    grid
	// ledger is the test build's nonce ledger (-tags nonceledger), one
	// per lone sender and one per sharded endpoint; otherwise nothing.
	ledger ledger

	// RecoveryFrac caps recovery traffic: retransmissions (SenderBuffered
	// resends and AppRecompute regenerations) may consume at most this
	// fraction of the current send rate, enforced by a token bucket
	// with a one-second burst. Suppressed resends are counted
	// (SenderStats.RetxSuppressed) and answered by the receiver's next
	// backed-off NACK instead — recovery pressure can no longer grow
	// just when the path is saturated. Critical ADUs bypass the cap
	// (their resends still debit it). Zero disables the cap; pacing
	// must be on (RateBps > 0) for the cap to apply.
	RecoveryFrac float64
}

// Validate rejects configurations that cannot mean anything sensible —
// negative rates, an MTU with no room for a payload, negative
// durations or counts — with a descriptive error naming the field.
// Zero values are not errors: they take the documented defaults in
// prepare. NewSender and NewReceiver call Validate, so a nonsense config
// fails loudly at construction instead of misbehaving silently.
func (c *Config) Validate() error {
	if c.RateBps < 0 {
		return fmt.Errorf("%w: RateBps %v is negative", ErrConfig, c.RateBps)
	}
	if c.MTU < 0 || (c.MTU > 0 && c.MTU <= HeaderSize) {
		return fmt.Errorf("%w: MTU %d leaves no fragment payload (header is %d bytes)",
			ErrConfig, c.MTU, HeaderSize)
	}
	for _, d := range []struct {
		name string
		v    sim.Duration
	}{
		{"NackDelay", c.NackDelay},
		{"NackInterval", c.NackInterval},
		{"HoldTime", c.HoldTime},
		{"HeartbeatInterval", c.HeartbeatInterval},
		{"HeartbeatMaxInterval", c.HeartbeatMaxInterval},
		{"ADUDeadline", c.ADUDeadline},
		{"FeedbackInterval", c.FeedbackInterval},
		{"ShedBacklog", c.ShedBacklog},
	} {
		if d.v < 0 {
			return fmt.Errorf("%w: %s %v is negative", ErrConfig, d.name, d.v)
		}
	}
	for _, n := range []struct {
		name string
		v    int
	}{
		{"MaxNacks", c.MaxNacks},
		{"MaxADU", c.MaxADU},
		{"BufferLimit", c.BufferLimit},
		{"HeartbeatLimit", c.HeartbeatLimit},
		{"FECGroup", c.FECGroup},
	} {
		if n.v < 0 {
			return fmt.Errorf("%w: %s %d is negative", ErrConfig, n.name, n.v)
		}
	}
	if c.ShedLossFrac < 0 || c.ShedLossFrac > 1 {
		return fmt.Errorf("%w: ShedLossFrac %v outside [0, 1]", ErrConfig, c.ShedLossFrac)
	}
	if c.RecoveryFrac < 0 || c.RecoveryFrac > 1 {
		return fmt.Errorf("%w: RecoveryFrac %v outside [0, 1]", ErrConfig, c.RecoveryFrac)
	}
	if c.Controller != nil {
		if c.FeedbackInterval == 0 {
			return fmt.Errorf("%w: Controller set without FeedbackInterval; the loop can never close",
				ErrConfig)
		}
		if c.RateBps == 0 {
			return fmt.Errorf("%w: Controller set on an unpaced stream (RateBps 0); there is no rate to control",
				ErrConfig)
		}
	}
	if wr, ok := c.Controller.(*WindowedRate); ok && wr.StaleAfter < 0 {
		return fmt.Errorf("%w: WindowedRate.StaleAfter %v is negative", ErrConfig, wr.StaleAfter)
	}
	if int(c.Suite) >= len(suites) {
		return fmt.Errorf("%w: unknown cipher suite %d", ErrConfig, c.Suite)
	}
	if (c.Suite == SuiteNone) != (c.Key == 0) {
		return fmt.Errorf("%w: suite %v with Key %#x; a key needs an enciphering suite and an enciphering suite a non-zero key",
			ErrConfig, c.Suite, c.Key)
	}
	if c.Suite == SuiteAEAD && int64(c.MaxADU) > aeadMaxADU {
		return fmt.Errorf("%w: MaxADU %d exceeds the AEAD counter-domain limit %d",
			ErrConfig, c.MaxADU, aeadMaxADU)
	}
	if c.Custody && c.Policy == AppRecompute {
		return fmt.Errorf("%w: Custody with the app-recompute policy; there is no retained copy for a custody ack to release",
			ErrConfig)
	}
	return nil
}

// prepare validates c, fills in its defaults and checks that the MTU
// leaves a fragment payload: what NewSender and NewReceiver both do first.
func (c *Config) prepare() error {
	if err := c.Validate(); err != nil {
		return err
	}
	c.suite = &suites[c.Suite]
	if c.Suite == SuiteAEAD {
		c.aeadKey = cipher.ExpandKey(c.Key)
	}
	if c.MTU == 0 {
		c.MTU = 1024 + HeaderSize
	}
	if c.Policy == 0 {
		c.Policy = SenderBuffered
	}
	if c.NackDelay == 0 {
		c.NackDelay = 20 * time.Millisecond
	}
	if c.NackInterval == 0 {
		c.NackInterval = 20 * time.Millisecond
	}
	if c.HoldTime == 0 {
		c.HoldTime = 2 * time.Second
	}
	if c.MaxNacks == 0 {
		c.MaxNacks = 10
	}
	if c.MaxADU == 0 {
		c.MaxADU = 16 << 20
	}
	if c.BufferLimit == 0 {
		c.BufferLimit = 64 << 20
	}
	if c.HeartbeatInterval == 0 {
		c.HeartbeatInterval = c.NackInterval
	}
	if c.HeartbeatMaxInterval == 0 {
		c.HeartbeatMaxInterval = max(time.Second, c.HeartbeatInterval)
	}
	if c.HeartbeatLimit == 0 {
		c.HeartbeatLimit = 200
	}
	if c.Pool == nil {
		c.Pool = buf.Default
	}
	if c.ShedBacklog == 0 {
		c.ShedBacklog = 100 * time.Millisecond
	}
	if c.ShedLossFrac == 0 {
		c.ShedLossFrac = 0.25
	}
	// Capped at what the 16-bit wire length field carries.
	fp := min((c.MTU-HeaderSize-c.suite.flags.Trailer())&^7, 0xFFF8)
	if fp < 8 {
		return fmt.Errorf("%w: MTU %d", ErrMTUTooSmall, c.MTU)
	}
	c.grid = grid{fp: fp, group: c.FECGroup, over: len(c.encap) + HeaderSize + c.suite.flags.Trailer()}
	return nil
}

// grid is a stream's fragment geometry, which prepare derives once and
// both ends must share. Fragment k of an ADU starts at k·fp and runs fp
// bytes or to the ADU's end (an empty ADU is one empty fragment); group
// fragments from a multiple of group are an FEC group, whose parity
// starts it and is as long as its first member.
type grid struct {
	fp    int // fragment payload
	group int // FECGroup: fragments per parity, 0 without FEC
	over  int // the bytes a packet puts on the wire besides its payload: encap prefix, header, trailer
}

// frag returns fragment k's offset and length in an ADU of total bytes.
func (g *grid) frag(k, total int) (off, n int) {
	off = k * g.fp
	return off, min(g.fp, total-off)
}

// frags returns how many data fragments an ADU of total bytes has.
func (g *grid) frags(total int) int { return max((total+g.fp-1)/g.fp, 1) }

// groups returns how many FEC groups, and so parities, an ADU of total
// bytes has: none without FEC.
func (g *grid) groups(total int) int {
	if g.group == 0 {
		return 0
	}
	return (g.frags(total) + g.group - 1) / g.group
}

// at is the receiver's test of a fragment at off of n bytes in an ADU of
// total bytes: whether it is fragment k of the grid, or, a parity, the
// one that starts k's group.
func (g *grid) at(off, n, total int, parity bool) (k int, ok bool) {
	k = off / g.fp
	return k, off == k*g.fp && n == min(g.fp, total-off) && (n > 0 || off == 0) &&
		(!parity || g.group > 0 && k%g.group == 0)
}

// wire returns the bytes an ADU of total bytes puts on the wire: every
// data fragment and parity with what each packet adds to its payload.
func (g *grid) wire(total int) int {
	f, p := g.frags(total), g.groups(total)
	n := total + (f+p)*g.over
	if p > 0 { // a parity is as long as its group's first member: fp, but for the last group's
		_, first := g.frag((p-1)*g.group, total)
		n += (p-1)*g.fp + first
	}
	return n
}
