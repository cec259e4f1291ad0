// Package rpc implements remote procedure call over ALF streams — the
// paper's general paradigm for data that must land in distinct
// application variables (§5, §6): "the incoming data is made to appear
// as parameters of a subroutine call".
//
// Each call is one ADU (tag = call id) whose payload is an
// xcode.Message: the method name followed by the arguments in the
// chosen transfer syntax. Each reply is one ADU on the reverse stream
// (same tag) carrying a status and the results. Because ADUs complete
// independently, concurrent calls never head-of-line block each other:
// a lost call packet delays only that call.
package rpc

import (
	"errors"
	"fmt"

	alf "repro/internal/core"
	"repro/internal/sim"
	"repro/internal/xcode"
)

// Errors.
var (
	ErrTimeout  = errors.New("rpc: call timed out")
	ErrNoMethod = errors.New("rpc: no such method")
	ErrBadReply = errors.New("rpc: malformed reply message")
)

// Reply status codes (first value of a reply message).
const (
	statusOK    = 0
	statusError = 1
)

// Handler implements one remote method.
type Handler func(args xcode.Message) (xcode.Message, error)

// Server dispatches incoming call ADUs to registered handlers and
// returns reply ADUs on its sender.
type Server struct {
	reply *alf.Sender
	codec xcode.Codec
	reg   map[string]Handler

	Stats ServerStats
}

// ServerStats counts server events.
type ServerStats struct {
	Calls     int64
	Errors    int64 // handler or lookup failures reported to callers
	BadCalls  int64 // undecodable call messages (dropped, no reply)
	ReplyFail int64 // replies the transport refused
}

// NewServer creates a server replying through reply using codec for
// reply bodies. Wire the call stream with rcv.OnADU = srv.HandleCall.
func NewServer(reply *alf.Sender, codec xcode.Codec) *Server {
	return &Server{reply: reply, codec: codec, reg: make(map[string]Handler)}
}

// Register installs a handler for method. Registering twice replaces.
func (s *Server) Register(method string, h Handler) { s.reg[method] = h }

// HandleCall processes one call ADU.
func (s *Server) HandleCall(adu alf.ADU) {
	msg, _, _, err := xcode.DecodeMessage(adu.Data)
	if err != nil || len(msg) == 0 || msg[0].Kind != xcode.KindString {
		s.Stats.BadCalls++
		return
	}
	s.Stats.Calls++
	method := msg[0].Str
	args := msg[1:]

	var result xcode.Message
	h, ok := s.reg[method]
	if !ok {
		err = fmt.Errorf("%w: %q", ErrNoMethod, method)
	} else {
		result, err = h(args)
	}

	var body xcode.Message
	if err != nil {
		s.Stats.Errors++
		body = xcode.Message{xcode.Int32Value(statusError), xcode.StringValue(err.Error())}
	} else {
		body = append(xcode.Message{xcode.Int32Value(statusOK)}, result...)
	}
	enc, encErr := xcode.EncodeMessage(s.codec, nil, body)
	if encErr != nil {
		s.Stats.ReplyFail++
		return
	}
	if _, err := s.reply.Send(adu.Tag, s.codec.ID(), enc); err != nil {
		s.Stats.ReplyFail++
	}
}

// Client issues calls over an ALF sender and matches replies arriving
// on the reverse stream.
type Client struct {
	call  *alf.Sender
	sched *sim.Scheduler
	codec xcode.Codec
	// Timeout bounds each call (default 5 s of virtual time).
	Timeout sim.Duration

	nextID  uint64
	pending map[uint64]*pendingCall

	Stats ClientStats
}

// ClientStats counts client events.
type ClientStats struct {
	Calls      int64
	Replies    int64
	Timeouts   int64
	BadReplies int64
	Orphans    int64 // replies with no pending call (late after timeout)
}

type pendingCall struct {
	done  func(xcode.Message, error)
	timer *sim.Timer
}

// NewClient creates a client calling through call with codec-encoded
// bodies. Wire the reply stream with rcv.OnADU = cli.HandleReply.
func NewClient(sched *sim.Scheduler, call *alf.Sender, codec xcode.Codec) *Client {
	return &Client{
		call:    call,
		sched:   sched,
		codec:   codec,
		Timeout: 5e9,
		pending: make(map[uint64]*pendingCall),
	}
}

// Go issues method(args...) asynchronously; done is invoked exactly
// once with the results or an error. The returned id is the call's ADU
// tag.
func (c *Client) Go(method string, args xcode.Message, done func(xcode.Message, error)) (uint64, error) {
	id := c.nextID
	c.nextID++
	body := append(xcode.Message{xcode.StringValue(method)}, args...)
	enc, err := xcode.EncodeMessage(c.codec, nil, body)
	if err != nil {
		return 0, err
	}
	p := &pendingCall{done: done}
	p.timer = c.sched.NewTimer(func() {
		if _, ok := c.pending[id]; !ok {
			return
		}
		delete(c.pending, id)
		c.Stats.Timeouts++
		done(nil, fmt.Errorf("%w: %s (call %d)", ErrTimeout, method, id))
	})
	c.pending[id] = p
	c.Stats.Calls++
	if _, err := c.call.Send(id, c.codec.ID(), enc); err != nil {
		delete(c.pending, id)
		return 0, err
	}
	p.timer.Reset(c.Timeout)
	return id, nil
}

// HandleReply processes one reply ADU.
func (c *Client) HandleReply(adu alf.ADU) {
	p, ok := c.pending[adu.Tag]
	if !ok {
		c.Stats.Orphans++
		return
	}
	delete(c.pending, adu.Tag)
	p.timer.Stop()

	msg, _, _, err := xcode.DecodeMessage(adu.Data)
	if err != nil || len(msg) == 0 || (msg[0].Kind != xcode.KindInt32 && msg[0].Kind != xcode.KindInt64) {
		c.Stats.BadReplies++
		p.done(nil, ErrBadReply)
		return
	}
	c.Stats.Replies++
	if msg[0].I64 == statusError {
		text := "remote error"
		if len(msg) > 1 && msg[1].Kind == xcode.KindString {
			text = msg[1].Str
		}
		p.done(nil, errors.New("rpc: "+text))
		return
	}
	p.done(msg[1:], nil)
}
