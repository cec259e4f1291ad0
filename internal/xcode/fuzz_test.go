package xcode

import "testing"

// FuzzCodecs feeds arbitrary bytes to every decoder of network input in
// this package: each codec's DecodeValue, and DecodeMessage. None may
// panic or report consuming more bytes than it was given, and what one
// decodes must come back from encode → decode as the value it was
// (Value.Equal).
func FuzzCodecs(f *testing.F) {
	rec := SeqValue(StringValue("open"), Int32Value(42), BytesValue([]byte{9, 8, 7}),
		SeqValue(Int64Value(1<<40)), Int32sValue([]int32{-1, 0, 1}))
	for _, c := range Codecs() {
		for _, v := range append(sampleValues(), rec) {
			if enc, err := c.EncodeValue(nil, v); err == nil {
				f.Add(enc)
			}
		}
		if enc, err := EncodeMessage(c, nil, Message{rec, Int32Value(2)}); err == nil {
			f.Add(enc)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range Codecs() {
			v, n, err := c.DecodeValue(data)
			if err != nil {
				continue
			}
			if n < 0 || n > len(data) {
				t.Fatalf("%s: consumed %d of %d bytes", c.Name(), n, len(data))
			}
			back, err := roundtrip(c, v)
			if err != nil {
				t.Fatalf("%s: a decoded %v does not re-encode and decode: %v", c.Name(), v.Kind, err)
			}
			if !back.Equal(v) {
				t.Fatalf("%s: decoded %+v, re-encoded and decoded %+v", c.Name(), v, back)
			}
		}
		msg, c, n, err := DecodeMessage(data)
		if err != nil {
			return
		}
		if n < 0 || n > len(data) {
			t.Fatalf("message: consumed %d of %d bytes", n, len(data))
		}
		enc, err := EncodeMessage(c, nil, msg)
		if err != nil {
			t.Fatalf("message in %s: a decoded message does not re-encode: %v", c.Name(), err)
		}
		back, c2, m, err := DecodeMessage(enc)
		if err != nil || c2.ID() != c.ID() || m != len(enc) || len(back) != len(msg) {
			t.Fatalf("message in %s: re-encoded message decodes as %d values in %v, %d of %d bytes: %v",
				c.Name(), len(back), c2, m, len(enc), err)
		}
		for i := range msg {
			if !back[i].Equal(msg[i]) {
				t.Fatalf("message in %s: value %d decoded %+v, re-encoded and decoded %+v", c.Name(), i, msg[i], back[i])
			}
		}
	})
}
