// Package session is the out-of-band control plane the paper
// deliberately separates from data transfer (§3: "session initiation,
// service location, and so on ... do not occur at the same time as data
// transfer"): a small reliable handshake that establishes an ALF stream
// — negotiating the transfer syntax (§5's abstract-syntax agreement),
// the stream identity, fragmentation and pacing parameters, the
// recovery policy, FEC, and a shared scramble key.
//
// The initiator retransmits its OFFER on a timer until an ACCEPT or
// REJECT arrives; the responder answers duplicate OFFERs idempotently.
// Syntax negotiation picks the first entry of the initiator's
// preference list that the responder supports.
//
// The "key exchange" XORs one random contribution from each side — like
// everything in internal/scramble it is a simulation stand-in, not
// cryptography.
package session

import (
	"encoding/binary"
	"errors"
	"fmt"
	"time"

	"repro/internal/checksum"
	alf "repro/internal/core"
	"repro/internal/sim"
	"repro/internal/xcode"
)

// Wire message types (distinct from the ALF data-plane types 1-3).
const (
	typeOffer  = 10
	typeAccept = 11
	typeReject = 12
)

// Reject reason codes.
const (
	ReasonNoCommonSyntax = 1
	ReasonRefused        = 2
	ReasonBadParams      = 3
)

// Errors.
var (
	ErrTimeout    = errors.New("session: handshake timed out")
	ErrRejected   = errors.New("session: offer rejected")
	ErrBadMessage = errors.New("session: malformed message")
	ErrState      = errors.New("session: unexpected message for state")
)

// Params is what the initiator proposes.
type Params struct {
	// StreamID for the data stream to establish.
	StreamID byte
	// Syntaxes in preference order; the responder picks the first it
	// supports.
	Syntaxes []xcode.SyntaxID
	// MTU, Policy, FECGroup, RateBps seed the alf.Config both ends will
	// use (zero values take alf defaults).
	MTU      int
	Policy   alf.Policy
	FECGroup int
	RateBps  float64
	// Encrypt requests a scramble key derived from both sides'
	// contributions.
	Encrypt bool
}

// Result is the established stream description, identical at both ends.
type Result struct {
	Params Params
	// Syntax is the negotiated transfer syntax.
	Syntax xcode.SyntaxID
	// Key is the combined scramble key (zero when Encrypt is false).
	Key uint64
}

// Config converts the negotiated result into an alf.Config.
func (r Result) Config() alf.Config {
	cfg := alf.Config{
		StreamID: r.Params.StreamID,
		MTU:      r.Params.MTU,
		Policy:   r.Params.Policy,
		FECGroup: r.Params.FECGroup,
		RateBps:  r.Params.RateBps,
		Key:      r.Key,
	}
	if r.Key != 0 {
		cfg.Suite = alf.SuiteScramble
	}
	return cfg
}

// offer wire layout:
//
//	0      type (10)
//	1      stream id
//	2      flags (bit0 encrypt; the rest zero)
//	3      policy
//	4:6    MTU
//	6:8    FEC group
//	8:16   rate (bits/s, uint64 that a float64 holds exactly)
//	16:24  initiator key half
//	24     syntax count k
//	25:..  k syntax ids
//	..     a zero pad byte when 25+k is odd
//	..+2   checksum
func encodeOffer(p Params, keyHalf uint64) []byte {
	k := len(p.Syntaxes)
	msg := make([]byte, 25+k)
	msg[0] = typeOffer
	msg[1] = p.StreamID
	if p.Encrypt {
		msg[2] |= 1
	}
	msg[3] = byte(p.Policy)
	binary.BigEndian.PutUint16(msg[4:6], uint16(p.MTU))
	binary.BigEndian.PutUint16(msg[6:8], uint16(p.FECGroup))
	binary.BigEndian.PutUint64(msg[8:16], uint64(p.RateBps))
	binary.BigEndian.PutUint64(msg[16:24], keyHalf)
	msg[24] = byte(k)
	for i, s := range p.Syntaxes {
		msg[25+i] = byte(s)
	}
	return seal(msg)
}

func parseOffer(pkt []byte) (Params, uint64, error) {
	var p Params
	if len(pkt) < sealedLen(26) || pkt[0] != typeOffer || !verify(pkt) {
		return p, 0, fmt.Errorf("%w: offer", ErrBadMessage)
	}
	k := int(pkt[24])
	if len(pkt) != sealedLen(25+k) {
		return p, 0, fmt.Errorf("%w: offer length", ErrBadMessage)
	}
	rate := binary.BigEndian.Uint64(pkt[8:16])
	if !padded(pkt, 25+k) || pkt[2]&^1 != 0 || uint64(float64(rate)) != rate {
		return p, 0, fmt.Errorf("%w: offer pad, flags or rate", ErrBadMessage)
	}
	p.StreamID = pkt[1]
	p.Encrypt = pkt[2]&1 != 0
	p.Policy = alf.Policy(pkt[3])
	p.MTU = int(binary.BigEndian.Uint16(pkt[4:6]))
	p.FECGroup = int(binary.BigEndian.Uint16(pkt[6:8]))
	p.RateBps = float64(rate)
	keyHalf := binary.BigEndian.Uint64(pkt[16:24])
	for i := 0; i < k; i++ {
		p.Syntaxes = append(p.Syntaxes, xcode.SyntaxID(pkt[25+i]))
	}
	return p, keyHalf, nil
}

// accept wire layout: type, stream, chosen syntax, responder key half,
// checksum.
func encodeAccept(stream byte, syntax xcode.SyntaxID, keyHalf uint64) []byte {
	msg := make([]byte, 11)
	msg[0] = typeAccept
	msg[1] = stream
	msg[2] = byte(syntax)
	binary.BigEndian.PutUint64(msg[3:11], keyHalf)
	return seal(msg)
}

func parseAccept(pkt []byte) (stream byte, syntax xcode.SyntaxID, keyHalf uint64, err error) {
	if len(pkt) != sealedLen(11) || pkt[0] != typeAccept || !verify(pkt) || !padded(pkt, 11) {
		return 0, 0, 0, fmt.Errorf("%w: accept", ErrBadMessage)
	}
	return pkt[1], xcode.SyntaxID(pkt[2]), binary.BigEndian.Uint64(pkt[3:11]), nil
}

func encodeReject(stream byte, reason byte) []byte {
	msg := make([]byte, 3)
	msg[0] = typeReject
	msg[1] = stream
	msg[2] = reason
	return seal(msg)
}

func parseReject(pkt []byte) (stream byte, reason byte, err error) {
	if len(pkt) != sealedLen(3) || pkt[0] != typeReject || !verify(pkt) || !padded(pkt, 3) {
		return 0, 0, fmt.Errorf("%w: reject", ErrBadMessage)
	}
	return pkt[1], pkt[2], nil
}

// seal pads body to even length (the 16-bit one's-complement check
// must sit word-aligned) and appends the checksum.
func seal(body []byte) []byte {
	if len(body)%2 == 1 {
		body = append(body, 0)
	}
	body = append(body, 0, 0)
	ck := checksum.Sum16(body[:len(body)-2])
	binary.BigEndian.PutUint16(body[len(body)-2:], ck)
	return body
}

// sealedLen returns the wire length of a body of n bytes after seal.
func sealedLen(n int) int { return n + n%2 + 2 }

func verify(msg []byte) bool { return checksum.Verify16(msg) }

// padded reports whether the pad byte seal adds after a body of n bytes,
// if it adds one, is zero; a parser that accepted any other value would
// take messages that re-encode to different bytes.
func padded(msg []byte, n int) bool { return n%2 == 0 || msg[n] == 0 }

// MessageType reports whether pkt is a session-plane message (10-12)
// or not (0), for node demultiplexers.
func MessageType(pkt []byte) int {
	if len(pkt) > 0 && pkt[0] >= typeOffer && pkt[0] <= typeReject {
		return int(pkt[0])
	}
	return 0
}

// Describe renders one session-plane message as a single line (no
// newline) for packet traces. A message the parsers above reject is
// shown as damaged.
func Describe(pkt []byte) string {
	switch MessageType(pkt) {
	case typeOffer:
		if p, _, err := parseOffer(pkt); err == nil {
			return fmt.Sprintf("session OFFER stream=%d syntaxes=%d mtu=%d policy=%d fec=%d",
				p.StreamID, len(p.Syntaxes), p.MTU, p.Policy, p.FECGroup)
		}
	case typeAccept:
		if stream, syntax, _, err := parseAccept(pkt); err == nil {
			return fmt.Sprintf("session ACCEPT stream=%d syntax=%d", stream, syntax)
		}
	case typeReject:
		if stream, reason, err := parseReject(pkt); err == nil {
			return fmt.Sprintf("session REJECT stream=%d reason=%d", stream, reason)
		}
	}
	return fmt.Sprintf("session: damaged or unknown (%d bytes)", len(pkt))
}

// combineKey mixes the two contributions into the stream key.
func combineKey(a, b uint64) uint64 {
	x := a ^ b ^ 0x9E3779B97F4A7C15
	x = (x ^ x>>30) * 0xBF58476D1CE4E5B9
	x = (x ^ x>>27) * 0x94D049BB133111EB
	return x ^ x>>31
}

// Initiator drives the opening side of the handshake.
type Initiator struct {
	rnd  *sim.Rand
	send func([]byte) error

	// RetryInterval and MaxRetries bound OFFER retransmission
	// (defaults 100 ms, 10).
	RetryInterval sim.Duration
	MaxRetries    int

	// OnEstablished fires once with the negotiated result.
	OnEstablished func(Result)
	// OnFail fires once if the handshake cannot complete.
	OnFail func(error)

	params  Params
	keyHalf uint64
	offer   []byte
	timer   *sim.Timer
	tries   int
	done    bool
	failed  bool
	active  bool
}

// NewInitiator creates an initiator sending handshake messages through
// send. rnd supplies the key contribution.
func NewInitiator(sched *sim.Scheduler, rnd *sim.Rand, send func([]byte) error) *Initiator {
	i := &Initiator{
		rnd:           rnd,
		send:          send,
		RetryInterval: 100 * time.Millisecond,
		MaxRetries:    10,
	}
	i.timer = sched.NewTimer(i.retry)
	return i
}

// Open starts the handshake with the given proposal.
func (i *Initiator) Open(p Params) error {
	if i.active || i.done {
		return fmt.Errorf("%w: handshake already started", ErrState)
	}
	if len(p.Syntaxes) == 0 {
		return fmt.Errorf("%w: no syntaxes offered", ErrBadMessage)
	}
	i.params = p
	i.keyHalf = i.rnd.Uint64()
	i.offer = encodeOffer(p, i.keyHalf)
	i.active = true
	i.tries = 0
	i.retry()
	return nil
}

func (i *Initiator) retry() {
	if i.done || !i.active {
		return
	}
	if i.tries >= i.MaxRetries {
		i.fail(fmt.Errorf("%w after %d offers", ErrTimeout, i.tries))
		return
	}
	i.tries++
	_ = i.send(i.offer)
	i.timer.Reset(i.RetryInterval)
}

func (i *Initiator) fail(err error) {
	i.done = true
	i.failed = true
	i.timer.Stop()
	if i.OnFail != nil {
		i.OnFail(err)
	}
}

// Handle processes one arriving session-plane packet.
func (i *Initiator) Handle(pkt []byte) error {
	if i.done || !i.active {
		return nil // late duplicates are harmless
	}
	switch MessageType(pkt) {
	case typeAccept:
		stream, syntax, theirHalf, err := parseAccept(pkt)
		if err != nil {
			return err
		}
		if stream != i.params.StreamID {
			return nil
		}
		supported := false
		for _, s := range i.params.Syntaxes {
			if s == syntax {
				supported = true
				break
			}
		}
		if !supported {
			i.fail(fmt.Errorf("%w: responder chose unoffered syntax %d", ErrBadMessage, syntax))
			return nil
		}
		i.done = true
		i.timer.Stop()
		res := Result{Params: i.params, Syntax: syntax}
		if i.params.Encrypt {
			res.Key = combineKey(i.keyHalf, theirHalf)
		}
		if i.OnEstablished != nil {
			i.OnEstablished(res)
		}
		return nil
	case typeReject:
		stream, reason, err := parseReject(pkt)
		if err != nil {
			return err
		}
		if stream != i.params.StreamID {
			return nil
		}
		i.fail(fmt.Errorf("%w: reason %d", ErrRejected, reason))
		return nil
	default:
		return fmt.Errorf("%w: type %d", ErrState, MessageType(pkt))
	}
}

// Established reports whether the handshake completed successfully.
func (i *Initiator) Established() bool { return i.done && !i.failed }

// Responder answers offers arriving at the accepting side.
type Responder struct {
	rnd  *sim.Rand
	send func([]byte) error

	// Supported lists the transfer syntaxes this side can decode.
	Supported []xcode.SyntaxID
	// Screen, if set, may veto an offer (return a Reason* code, or 0 to
	// accept).
	Screen func(Params) byte
	// OnEstablished fires once per established stream.
	OnEstablished func(Result)

	// established remembers per-stream results so duplicate OFFERs get
	// identical ACCEPTs (idempotence under retransmission).
	established map[byte]*respState
}

type respState struct {
	accept []byte
	result Result
}

// NewResponder creates a responder.
func NewResponder(rnd *sim.Rand, send func([]byte) error, supported []xcode.SyntaxID) *Responder {
	return &Responder{
		rnd:         rnd,
		send:        send,
		Supported:   supported,
		established: make(map[byte]*respState),
	}
}

// Handle processes one arriving session-plane packet.
func (r *Responder) Handle(pkt []byte) error {
	if MessageType(pkt) != typeOffer {
		return fmt.Errorf("%w: type %d", ErrState, MessageType(pkt))
	}
	p, theirHalf, err := parseOffer(pkt)
	if err != nil {
		return err
	}
	if st, dup := r.established[p.StreamID]; dup {
		// Retransmitted OFFER: repeat the identical ACCEPT.
		_ = r.send(st.accept)
		return nil
	}
	if r.Screen != nil {
		if reason := r.Screen(p); reason != 0 {
			_ = r.send(encodeReject(p.StreamID, reason))
			return nil
		}
	}
	chosen := xcode.SyntaxID(0)
	for _, want := range p.Syntaxes {
		for _, have := range r.Supported {
			if want == have {
				chosen = want
				break
			}
		}
		if chosen != 0 {
			break
		}
	}
	if chosen == 0 {
		_ = r.send(encodeReject(p.StreamID, ReasonNoCommonSyntax))
		return nil
	}
	myHalf := r.rnd.Uint64()
	res := Result{Params: p, Syntax: chosen}
	if p.Encrypt {
		res.Key = combineKey(theirHalf, myHalf)
	}
	st := &respState{accept: encodeAccept(p.StreamID, chosen, myHalf), result: res}
	r.established[p.StreamID] = st
	_ = r.send(st.accept)
	if r.OnEstablished != nil {
		r.OnEstablished(res)
	}
	return nil
}

// Result returns the established result for a stream, if any.
func (r *Responder) Result(stream byte) (Result, bool) {
	st, ok := r.established[stream]
	if !ok {
		return Result{}, false
	}
	return st.result, true
}
