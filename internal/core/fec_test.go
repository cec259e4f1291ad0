package alf

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/wire"
	"repro/internal/xcode"
)

// fecRig is a pair with a programmable drop filter on the data
// direction, applied as the fragments arrive.
type fecRig struct {
	*pair
	drop func(h *wire.Header) bool
}

func newFECRig(t *testing.T, cfg Config, linkCfg netsim.LinkConfig, seed int64) *fecRig {
	t.Helper()
	r := &fecRig{pair: newPair(t, linkCfg, cfg, seed)}
	reinstallReceiver(r.pair, func(pkt []byte) {
		if r.drop != nil && wire.TypeOf(pkt) == wire.TypeData {
			if h, err := wire.ParseHeader(pkt); err == nil && r.drop(&h) {
				return
			}
		}
		r.rcv.HandlePacket(pkt)
	})
	return r
}

func TestFECParityEmitted(t *testing.T) {
	cfg := Config{FECGroup: 4, MTU: 256 + HeaderSize}
	r := newFECRig(t, cfg, netsim.LinkConfig{Delay: time.Millisecond}, 1)
	// 10 fragments of 256 -> groups of 4: parities at frag 0-3, 4-7, 8-9.
	r.snd.Send(0, xcode.SyntaxRaw, payload(2560, 1))
	r.sched.Run()
	if r.snd.Stats.ParityFrags != 3 {
		t.Errorf("parity fragments = %d, want 3", r.snd.Stats.ParityFrags)
	}
	// The last parity trails the data that completed the ADU, so it
	// arrives "late" for an already-settled name.
	if r.rcv.Stats.ParityFrags != 2 || r.rcv.Stats.LateFragments != 1 {
		t.Errorf("receiver parity fragments = %d (late %d), want 2 accepted + 1 late",
			r.rcv.Stats.ParityFrags, r.rcv.Stats.LateFragments)
	}
	if len(r.adus) != 1 || !bytes.Equal(r.adus[0].Data, payload(2560, 1)) {
		t.Fatal("clean FEC transfer corrupted")
	}
	if r.rcv.Stats.FECRecovered != 0 {
		t.Errorf("FEC recovered %d on a clean link", r.rcv.Stats.FECRecovered)
	}
}

func TestFECRecoversSingleLossWithoutRetransmission(t *testing.T) {
	cfg := Config{
		FECGroup: 4, MTU: 256 + HeaderSize,
		NackDelay: 5 * time.Millisecond, NackInterval: 5 * time.Millisecond,
	}
	r := newFECRig(t, cfg, netsim.LinkConfig{Delay: time.Millisecond}, 1)
	// Drop the second data fragment (offset 256) of ADU 0, once.
	dropped := false
	r.drop = func(h *wire.Header) bool {
		if !dropped && h.Flags&wire.FlagParity == 0 && h.Name == 0 && h.FragOff == 256 {
			dropped = true
			return true
		}
		return false
	}
	data := payload(2560, 7)
	r.snd.Send(0, xcode.SyntaxRaw, data)
	r.sched.Run()

	if !dropped {
		t.Fatal("drop filter never matched")
	}
	if len(r.adus) != 1 || !bytes.Equal(r.adus[0].Data, data) {
		t.Fatal("ADU not reconstructed correctly")
	}
	if r.rcv.Stats.FECRecovered != 1 {
		t.Errorf("FECRecovered = %d, want 1", r.rcv.Stats.FECRecovered)
	}
	if r.snd.Stats.ResentADUs != 0 {
		t.Errorf("retransmission happened (%d) despite FEC recovery", r.snd.Stats.ResentADUs)
	}
	if r.rcv.Stats.NacksSent != 0 {
		t.Errorf("NACKs sent (%d) despite FEC recovery", r.rcv.Stats.NacksSent)
	}
}

func TestFECRecoversLastShortFragment(t *testing.T) {
	cfg := Config{FECGroup: 4, MTU: 256 + HeaderSize,
		NackDelay: 5 * time.Millisecond, NackInterval: 5 * time.Millisecond}
	r := newFECRig(t, cfg, netsim.LinkConfig{Delay: time.Millisecond}, 1)
	// ADU of 1000 bytes -> fragments 256,256,256,232; drop the short one.
	dropped := false
	r.drop = func(h *wire.Header) bool {
		if !dropped && h.Flags&wire.FlagParity == 0 && h.FragOff == 768 {
			dropped = true
			return true
		}
		return false
	}
	data := payload(1000, 9)
	r.snd.Send(0, xcode.SyntaxRaw, data)
	r.sched.Run()
	if len(r.adus) != 1 || !bytes.Equal(r.adus[0].Data, data) {
		t.Fatal("short-tail fragment not reconstructed")
	}
	if r.rcv.Stats.FECRecovered != 1 {
		t.Errorf("FECRecovered = %d", r.rcv.Stats.FECRecovered)
	}
}

func TestFECWithEncryption(t *testing.T) {
	cfg := Config{
		FECGroup: 2, MTU: 512 + HeaderSize, Suite: SuiteScramble, Key: 0xABCD,
		NackDelay: 5 * time.Millisecond, NackInterval: 5 * time.Millisecond,
	}
	r := newFECRig(t, cfg, netsim.LinkConfig{Delay: time.Millisecond}, 1)
	dropped := 0
	r.drop = func(h *wire.Header) bool {
		// Drop one data fragment per ADU (the first of group 2).
		if h.Flags&wire.FlagParity == 0 && h.FragOff == 1024 && dropped < 5 {
			dropped++
			return true
		}
		return false
	}
	for i := 0; i < 5; i++ {
		r.snd.Send(uint64(i), xcode.SyntaxRaw, payload(2048, byte(i)))
	}
	r.sched.Run()
	if len(r.adus) != 5 {
		t.Fatalf("delivered %d of 5", len(r.adus))
	}
	for _, a := range r.adus {
		if !bytes.Equal(a.Data, payload(2048, byte(a.Name))) {
			t.Fatalf("encrypted ADU %d reconstructed wrong", a.Name)
		}
	}
	if r.rcv.Stats.FECRecovered != 5 {
		t.Errorf("FECRecovered = %d, want 5", r.rcv.Stats.FECRecovered)
	}
	if r.snd.Stats.ResentADUs != 0 {
		t.Error("resends despite FEC")
	}
}

func TestFECDoubleGroupLossFallsBackToNack(t *testing.T) {
	cfg := Config{
		FECGroup: 4, MTU: 256 + HeaderSize,
		NackDelay: 5 * time.Millisecond, NackInterval: 5 * time.Millisecond,
	}
	r := newFECRig(t, cfg, netsim.LinkConfig{Delay: time.Millisecond}, 1)
	drops := 0
	r.drop = func(h *wire.Header) bool {
		// Lose two data fragments of the same group, first time around.
		if h.Flags&wire.FlagParity == 0 && (h.FragOff == 0 || h.FragOff == 256) && drops < 2 {
			drops++
			return true
		}
		return false
	}
	data := payload(2048, 5)
	r.snd.Send(0, xcode.SyntaxRaw, data)
	r.sched.Run()
	if len(r.adus) != 1 || !bytes.Equal(r.adus[0].Data, data) {
		t.Fatal("double-loss ADU not recovered")
	}
	if r.snd.Stats.ResentADUs == 0 {
		t.Error("expected NACK retransmission for a double loss")
	}
}

func TestFECParityLossHarmless(t *testing.T) {
	cfg := Config{FECGroup: 4, MTU: 256 + HeaderSize}
	r := newFECRig(t, cfg, netsim.LinkConfig{Delay: time.Millisecond}, 1)
	r.drop = func(h *wire.Header) bool { return h.Flags&wire.FlagParity != 0 }
	data := payload(4096, 3)
	r.snd.Send(0, xcode.SyntaxRaw, data)
	r.sched.Run()
	if len(r.adus) != 1 || !bytes.Equal(r.adus[0].Data, data) {
		t.Fatal("transfer failed when parity fragments were lost")
	}
}

func TestFECDuplicateParityIgnored(t *testing.T) {
	s := sim.NewScheduler()
	rcfg := Config{FECGroup: 4, MTU: 256 + HeaderSize}
	rcv, err := NewReceiver(s, nil, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	var pkts [][]byte
	snd, err := testSender(s, func(p []byte) error {
		pkts = append(pkts, append([]byte(nil), p...))
		return nil
	}, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	snd.Send(0, xcode.SyntaxRaw, payload(1024, 2))
	delivered := 0
	rcv.OnADU = func(ADU) { delivered++ }
	for _, p := range pkts {
		rcv.HandlePacket(p)
		rcv.HandlePacket(p) // replay everything
	}
	if delivered != 1 {
		t.Fatalf("delivered %d, want 1", delivered)
	}
	if rcv.Stats.DupFragments == 0 {
		t.Error("duplicates not counted")
	}
}

func TestFECUnderRandomLoss(t *testing.T) {
	// End-to-end: FEC should cut retransmissions well below the no-FEC
	// baseline at the same loss rate and seed.
	run := func(fecGroup int) (resends int64, recovered int64) {
		cfg := Config{
			FECGroup: fecGroup, MTU: 512 + HeaderSize,
			NackDelay: 5 * time.Millisecond, NackInterval: 5 * time.Millisecond,
		}
		r := newFECRig(t, cfg, netsim.LinkConfig{Delay: time.Millisecond, LossProb: 0.03}, 77)
		const n = 100
		for i := 0; i < n; i++ {
			r.snd.Send(uint64(i), xcode.SyntaxRaw, payload(4096, byte(i)))
		}
		r.sched.Run()
		if len(r.adus) != n {
			t.Fatalf("fec=%d: delivered %d of %d", fecGroup, len(r.adus), n)
		}
		for _, a := range r.adus {
			if !bytes.Equal(a.Data, payload(4096, byte(a.Name))) {
				t.Fatalf("fec=%d: ADU %d corrupt", fecGroup, a.Name)
			}
		}
		return r.snd.Stats.ResentADUs, r.rcv.Stats.FECRecovered
	}
	noFECResends, _ := run(0)
	fecResends, recovered := run(4)
	if recovered == 0 {
		t.Fatal("FEC never recovered anything at 3% loss")
	}
	if fecResends >= noFECResends {
		t.Errorf("FEC resends (%d) not below baseline (%d); recovered=%d",
			fecResends, noFECResends, recovered)
	}
}

func TestFECNoRetransmitVideoResidualLoss(t *testing.T) {
	// The NoRetransmit + FEC combination: residual ADU loss must drop
	// versus plain NoRetransmit.
	run := func(fecGroup int) (lost int) {
		cfg := Config{
			Policy: NoRetransmit, FECGroup: fecGroup,
			MTU:      512 + HeaderSize,
			HoldTime: 100 * time.Millisecond, NackInterval: 10 * time.Millisecond,
		}
		r := newFECRig(t, cfg, netsim.LinkConfig{Delay: time.Millisecond, LossProb: 0.05}, 99)
		r.rcv.OnLost = func(uint64) { lost++ }
		for i := 0; i < 200; i++ {
			r.snd.Send(uint64(i), xcode.SyntaxRaw, payload(2048, byte(i)))
		}
		r.sched.Run()
		return lost
	}
	plain := run(0)
	withFEC := run(2)
	if plain == 0 {
		t.Fatal("no baseline losses at 5%; test is vacuous")
	}
	if withFEC >= plain {
		t.Errorf("FEC residual loss %d not below baseline %d", withFEC, plain)
	}
}

// BenchmarkHandlePacketDataPath measures the full ALF stage-one receive
// cost for one in-order 1 KB fragment: header verify, demux, fused
// place+checksum.
func BenchmarkHandlePacketDataPath(b *testing.B) {
	s := sim.NewScheduler()
	var pkts [][]byte
	const pool = 512
	snd, _ := testSender(s, func(p []byte) error {
		if wire.TypeOf(p) == wire.TypeData {
			pkts = append(pkts, append([]byte(nil), p...))
		}
		return nil
	}, Config{MTU: 1024 + HeaderSize})
	for i := 0; i < pool; i++ {
		snd.Send(uint64(i), xcode.SyntaxRaw, make([]byte, 1024))
	}
	newRcv := func() *Receiver {
		r, _ := NewReceiver(s, nil, Config{MTU: 1024 + HeaderSize})
		r.OnADU = func(ADU) {}
		return r
	}
	rcv := newRcv()
	b.SetBytes(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%pool == 0 && i > 0 {
			b.StopTimer()
			rcv = newRcv()
			b.StartTimer()
		}
		rcv.HandlePacket(pkts[i%pool])
	}
}

// BenchmarkHandlePacketEncrypted adds the fused decipher to the same
// path: the marginal cost of the extra manipulation inside one loop.
func BenchmarkHandlePacketEncrypted(b *testing.B) {
	s := sim.NewScheduler()
	var pkts [][]byte
	const pool = 512
	cfg := Config{MTU: 1024 + HeaderSize, Suite: SuiteScramble, Key: 99}
	snd, _ := testSender(s, func(p []byte) error {
		if wire.TypeOf(p) == wire.TypeData {
			pkts = append(pkts, append([]byte(nil), p...))
		}
		return nil
	}, cfg)
	for i := 0; i < pool; i++ {
		snd.Send(uint64(i), xcode.SyntaxRaw, make([]byte, 1024))
	}
	newRcv := func() *Receiver {
		r, _ := NewReceiver(s, nil, cfg)
		r.OnADU = func(ADU) {}
		return r
	}
	rcv := newRcv()
	b.SetBytes(1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%pool == 0 && i > 0 {
			b.StopTimer()
			rcv = newRcv()
			b.StartTimer()
		}
		rcv.HandlePacket(pkts[i%pool])
	}
}
