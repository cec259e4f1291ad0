// Package layered assembles a complete end-system protocol stack in the
// naive layered engineering style the paper critiques (§6): every layer
// is a separate module that makes its own full pass over the data.
//
// The stack mirrors the TCP + ISODE configuration of the paper's §4
// macro-experiment:
//
//	application   value in local syntax
//	presentation  xcode codec: encode/decode (full pass, resizes data)
//	session       record framing + optional record encryption (full pass)
//	transport     otp: ordered byte stream, checksum, retransmission
//	network       netsim link underneath
//
// On receive the passes run in reverse. Nothing is fused; each layer
// reads its input from memory and writes its output back — exactly the
// ordering constraints ILP removes. Compare with the ALF path
// (internal/core + internal/ilp), which crosses the same logical layers
// in one or two integrated loops.
package layered

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/otp"
	"repro/internal/scramble"
	"repro/internal/xcode"
)

// recordHeader is the session-layer record mark: a 4-byte length.
const recordHeader = 4

// ErrRecordTooLarge guards the record reassembly buffer.
var ErrRecordTooLarge = errors.New("layered: record exceeds MaxRecord")

// DefaultMaxRecord bounds one session record.
const DefaultMaxRecord = 16 << 20

// Stack is one end of the layered stack bound to an OTP connection.
// Create both ends with New, then exchange values with SendValue and
// the OnValue callback.
type Stack struct {
	conn  *otp.Conn
	codec xcode.Codec
	key   uint64
	// MaxRecord bounds incoming records (default DefaultMaxRecord).
	MaxRecord int

	// OnValue receives each decoded application value, in order.
	OnValue func(xcode.Value)
	// OnError receives decode failures (the stream position cannot be
	// resynchronized after one; subsequent records still parse because
	// framing is independent of content).
	OnError func(error)

	// Session receive state.
	rbuf    []byte
	sendSeq uint64 // record numbers, for per-record encryption
	recvSeq uint64

	Stats Stats
}

// Stats counts stack-level events.
type Stats struct {
	ValuesSent     int64
	BytesEncoded   int64 // presentation output bytes (send side)
	ValuesReceived int64
	DecodeErrors   int64
	RecordsTooBig  int64
}

// New binds a stack to conn using the given presentation codec.
// key != 0 enables session-layer record encryption. The stack installs
// itself as conn.OnData.
func New(conn *otp.Conn, codec xcode.Codec, key uint64) *Stack {
	s := &Stack{conn: conn, codec: codec, key: key, MaxRecord: DefaultMaxRecord}
	conn.OnData = s.onData
	return s
}

// Codec returns the presentation codec in use.
func (s *Stack) Codec() xcode.Codec { return s.codec }

// SendValue pushes one application value down the stack:
// presentation encode (pass 1), session encrypt (pass 2), record
// framing copy (pass 3), then the transport's own buffering and
// checksum passes inside otp.
func (s *Stack) SendValue(v xcode.Value) error {
	// Presentation layer: full encoding pass, output resized.
	enc, err := s.codec.EncodeValue(nil, v)
	if err != nil {
		return fmt.Errorf("layered: presentation: %w", err)
	}
	s.Stats.BytesEncoded += int64(len(enc))

	// Session layer: separate encryption pass over the record.
	if s.key != 0 {
		scramble.XORAt(s.key^s.sendSeq, 0, enc)
	}
	s.sendSeq++

	// Record framing: another buffer, another copy.
	rec := make([]byte, recordHeader+len(enc))
	binary.BigEndian.PutUint32(rec, uint32(len(enc)))
	copy(rec[recordHeader:], enc)

	// Transport: otp copies into its send buffer and checksums each
	// segment as it goes out.
	if err := s.conn.Send(rec); err != nil {
		return fmt.Errorf("layered: transport: %w", err)
	}
	s.Stats.ValuesSent++
	return nil
}

// onData is the session layer's receive side: accumulate the byte
// stream (copy), carve records, decrypt each (pass), and hand the
// result up to presentation decode (pass).
func (s *Stack) onData(data []byte) {
	// The byte stream has no alignment with records: buffer first.
	s.rbuf = append(s.rbuf, data...)
	for {
		if len(s.rbuf) < recordHeader {
			return
		}
		n := int(binary.BigEndian.Uint32(s.rbuf))
		max := s.MaxRecord
		if max == 0 {
			max = DefaultMaxRecord
		}
		if n > max {
			// Unrecoverable framing state; drop the buffer.
			s.Stats.RecordsTooBig++
			s.rbuf = nil
			if s.OnError != nil {
				s.OnError(fmt.Errorf("%w: %d bytes", ErrRecordTooLarge, n))
			}
			return
		}
		if len(s.rbuf) < recordHeader+n {
			return
		}
		rec := make([]byte, n)
		copy(rec, s.rbuf[recordHeader:recordHeader+n])
		s.rbuf = s.rbuf[recordHeader+n:]

		// Session decryption: full pass.
		if s.key != 0 {
			scramble.XORAt(s.key^s.recvSeq, 0, rec)
		}
		s.recvSeq++

		// Presentation decode: full pass, allocates the application
		// representation (the "move into application address space").
		v, used, err := s.codec.DecodeValue(rec)
		if err != nil || used != n {
			if err == nil {
				err = fmt.Errorf("layered: record had %d trailing bytes", n-used)
			}
			s.Stats.DecodeErrors++
			if s.OnError != nil {
				s.OnError(err)
			}
			continue
		}
		s.Stats.ValuesReceived++
		if s.OnValue != nil {
			s.OnValue(v)
		}
	}
}
