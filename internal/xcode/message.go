package xcode

import "fmt"

// A Message is an ordered sequence of values — the argument or result
// list of a remote procedure call. The paper's RPC discussion (§5, §6)
// is about exactly this: the presentation layer must deliver these
// values into distinct application variables, not into one linear
// buffer.
type Message []Value

// EncodeMessage appends the encoding of msg in codec c: a one-byte
// syntax ID, a two-byte big-endian value count, then each value in
// sequence. The embedded syntax ID makes messages self-describing so a
// receiver can decode without prior negotiation.
func EncodeMessage(c Codec, dst []byte, msg Message) ([]byte, error) {
	if len(msg) > 0xFFFF {
		return nil, fmt.Errorf("%w: %d values in message", ErrOverflow, len(msg))
	}
	dst = append(dst, byte(c.ID()), byte(len(msg)>>8), byte(len(msg)))
	for i, v := range msg {
		var err error
		dst, err = c.EncodeValue(dst, v)
		if err != nil {
			return nil, fmt.Errorf("message value %d: %w", i, err)
		}
	}
	return dst, nil
}

// DecodeMessage decodes a message produced by EncodeMessage, returning
// the message, the codec it was encoded with, and the bytes consumed.
func DecodeMessage(src []byte) (Message, Codec, int, error) {
	if len(src) < 3 {
		return nil, nil, 0, fmt.Errorf("%w: message header", ErrTruncated)
	}
	c, err := ByID(SyntaxID(src[0]))
	if err != nil {
		return nil, nil, 0, err
	}
	count := int(src[1])<<8 | int(src[2])
	msg := make(Message, 0, count)
	off := 3
	for i := 0; i < count; i++ {
		v, n, err := c.DecodeValue(src[off:])
		if err != nil {
			return nil, nil, 0, fmt.Errorf("message value %d: %w", i, err)
		}
		msg = append(msg, v)
		off += n
	}
	return msg, c, off, nil
}
