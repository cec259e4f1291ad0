package xcode

import (
	"math/rand"
	"testing"
)

func benchInts(n int) []int32 {
	vs := make([]int32, n)
	r := rand.New(rand.NewSource(1))
	for i := range vs {
		vs[i] = int32(r.Uint32())
	}
	return vs
}

func benchEncode(b *testing.B, c Codec, v Value, appBytes int) {
	b.Helper()
	buf := make([]byte, 0, appBytes*3+64)
	b.SetBytes(int64(appBytes))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		buf, err = c.EncodeValue(buf[:0], v)
		if err != nil {
			b.Fatal(err)
		}
	}
}

func benchDecode(b *testing.B, c Codec, v Value, appBytes int) {
	b.Helper()
	enc, err := c.EncodeValue(nil, v)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(appBytes))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := c.DecodeValue(enc); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEncodeInt32s4KB(b *testing.B) {
	v := Int32sValue(benchInts(1024))
	for _, c := range Codecs() {
		b.Run(c.Name(), func(b *testing.B) { benchEncode(b, c, v, 4096) })
	}
}

func BenchmarkDecodeInt32s4KB(b *testing.B) {
	v := Int32sValue(benchInts(1024))
	for _, c := range Codecs() {
		b.Run(c.Name(), func(b *testing.B) { benchDecode(b, c, v, 4096) })
	}
}

func BenchmarkEncodeBytes4KB(b *testing.B) {
	data := make([]byte, 4096)
	rand.New(rand.NewSource(2)).Read(data)
	v := BytesValue(data)
	for _, c := range Codecs() {
		b.Run(c.Name(), func(b *testing.B) { benchEncode(b, c, v, 4096) })
	}
}
