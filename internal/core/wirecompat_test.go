package alf

import (
	"encoding/hex"
	"testing"

	"repro/internal/sim"
	"repro/internal/wire"
	"repro/internal/xcode"
)

// TestWireCompat pins the bytes on the wire: one DATA fragment per
// cipher suite (and an AEAD parity fragment), and one CTRL, HB, FB and
// CA frame, as hex captured from the commit before the frame formats
// moved to internal/wire and the suites into one table. A difference
// here means old and new endpoints no longer interoperate.
func TestWireCompat(t *testing.T) {
	data := make([]byte, 40)
	for i := range data {
		data[i] = byte(i*7 + 3)
	}
	// 40 bytes at 16 per fragment, FEC groups of 2: fragments 0 and 1,
	// their parity, fragment 2, its parity.
	for _, c := range []struct {
		name  string
		cfg   Config
		frags map[int]string
	}{
		{"clear", Config{}, map[int]string{
			0: "01030000000000000000000000000000beef03040000002800000000001056cae606030a11181f262d343b424950575e656c",
			2: "01030000000000000000000000000000beef03060000002800000000001056cae6047070909090b0b09090f0f0909090b0b0",
		}},
		{"scramble", Config{Suite: SuiteScramble, Key: 0x1234}, map[int]string{
			0: "01030000000000000000000000000000beef03050000002800000000001056cae6058b32f3cd9809496b8e0e4a6d04262836",
			3: "01030000000000000000000000000000beef03050000002800000020000856cae5ed5fce3791a7197694",
		}},
		{"aead", Config{Suite: SuiteAEAD, Key: 0x1234, MTU: HeaderSize + 16 + wire.TagSize}, map[int]string{
			1: "01030000000000000000000000000000beef030c0000002800000010001000003cb9b99de8f221cf83a81a8e8b697e4c82cde51236a708003d858f7e14fb7f7ecc4c",
			2: "01030000000000000000000000000000beef030e0000002800000000001000003cc700744995996390301e70030890988c2bfa0888a993206ff8275ea3c724de731d",
			4: "01030000000000000000000000000000beef030e0000002800000020000800003caf0ac9994a79d2eee3961eaa2c58a7c9f2ca596ea47672ed82",
		}},
	} {
		cfg := c.cfg
		cfg.StreamID, cfg.FECGroup = 3, 2
		if cfg.MTU == 0 {
			cfg.MTU = HeaderSize + 16
		}
		var pkts []string
		snd, err := testSender(sim.NewScheduler(), func(p []byte) error {
			pkts = append(pkts, hex.EncodeToString(p))
			return nil
		}, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := snd.SendClass(0xBEEF, xcode.SyntaxXDR, data, Critical); err != nil {
			t.Fatal(err)
		}
		if len(pkts) != 5 {
			t.Fatalf("%s: %d packets, want 5", c.name, len(pkts))
		}
		for i, want := range c.frags {
			if pkts[i] != want {
				t.Errorf("%s packet %d\n got %s\nwant %s", c.name, i, pkts[i], want)
			}
		}
	}
	var fb [wire.FeedbackSize]byte
	for name, f := range map[string]struct {
		got  []byte
		want string
	}{
		"CTRL": {wire.EncodeControl(nil, &wire.Control{Stream: 3, Cum: 7, Nacks: []uint64{9, 1 << 40}}),
			"02030000000000000007000200000000000000090000010000000000fcea"},
		"HB": {wire.EncodeHeartbeat(nil, 3, 42), "0303000000000000002afcd2"},
		"FB": {wire.EncodeFeedback(fb[:0], 3, 5, 1<<33, 12345), "04030000000500000002000000000000000000003039cbbc"},
		"CA": {wire.EncodeCustody(&wire.CustodyAck{Stream: 3, Relay: 7, Cum: 42, Names: []uint64{50, 1 << 40}}),
			"05030700000000000000002a000200000000000000320000010000000000f29e"},
	} {
		if got := hex.EncodeToString(f.got); got != f.want {
			t.Errorf("%s\n got %s\nwant %s", name, got, f.want)
		}
	}
}
