package experiments

import (
	"fmt"
	"math"
	"time"

	"repro/internal/atm"
	"repro/internal/buf"
	alf "repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/wire"
	"repro/internal/xcode"
)

// twoNodes is the path every simulated run but F4's cell link uses, the
// E4/E6 stacks included: nodes a and b, created in that order on a
// network seeded with seed, joined by a duplex link of cfg.
func twoNodes(seed int64, cfg netsim.LinkConfig) (*sim.Scheduler, *netsim.Node, *netsim.Node, *netsim.Link, *netsim.Link) {
	s := sim.NewScheduler()
	n := netsim.New(s, seed)
	a := n.NewNode("a")
	b := n.NewNode("b")
	ab, ba := n.NewDuplex(a, b, cfg)
	return s, a, b, ab, ba
}

// sendBulk submits total bytes of zeros to snd at once, as ADUs of
// aduBytes (the last one short) with the i-th tagged i*tagStep: a
// tagStep of aduBytes tags each ADU by its offset.
func sendBulk(snd *alf.Sender, total, aduBytes int, tagStep uint64) error {
	chunk := make([]byte, aduBytes)
	for off, i := 0, uint64(0); off < total; off, i = off+aduBytes, i+1 {
		if _, err := snd.Send(i*tagStep, xcode.SyntaxRaw, chunk[:min(aduBytes, total-off)]); err != nil {
			return err
		}
	}
	return nil
}

// F3Point is one ADU-size sample of the §5 size-bounding experiment:
// with a fixed bit-error rate and whole-ADU loss semantics, the ADU
// size has an interior optimum — too small wastes headers, too large
// makes every ADU fail.
type F3Point struct {
	ADUBytes int
	// PIntactPredicted is (1-BER)^(8*wire bytes per ADU), the paper's
	// "probability of any ADU having at least one uncorrected error
	// would approach one".
	PIntactPredicted float64
	// PIntactMeasured is the fraction of first transmissions that
	// arrived undamaged.
	PIntactMeasured float64
	// GoodputMbps is application bytes over completion time, recovery
	// included.
	GoodputMbps float64
	// Overhead is wire bytes sent divided by application bytes.
	Overhead float64
	Resends  int64
}

// F3's transfer of 1 MB over a 100 Mb/s link with a bit error rate of
// 2e-6.
const (
	f3Bytes   = 1 << 20
	f3LinkBps = 100e6
	f3BER     = 2e-6
)

// RunF3 measures one ADU size.
func RunF3(seed int64, aduBytes int) (F3Point, error) {
	p := F3Point{ADUBytes: aduBytes}
	s, a, b, ab, ba := twoNodes(seed, netsim.LinkConfig{
		RateBps: f3LinkBps, Delay: time.Millisecond, BitErrorRate: f3BER,
	})
	acfg := alf.Config{
		NackDelay:    5 * time.Millisecond,
		NackInterval: 5 * time.Millisecond,
		MaxNacks:     1000,
		HoldTime:     300 * time.Second,
		RateBps:      f3LinkBps,
	}
	snd, rcv, err := alf.Connect(s, a, b, ab, ba, acfg)
	if err != nil {
		return p, err
	}

	var done sim.Time
	received := 0
	total := (f3Bytes + aduBytes - 1) / aduBytes
	rcv.OnADU = func(adu alf.ADU) {
		received++
		if received == total {
			done = s.Now()
		}
	}
	if err := sendBulk(snd, f3Bytes, aduBytes, uint64(aduBytes)); err != nil {
		return p, err
	}
	if err := s.Run(); err != nil {
		return p, err
	}
	if received != total {
		return p, fmt.Errorf("f3: delivered %d of %d ADUs (adu=%d)", received, total, aduBytes)
	}

	// Wire bytes per ADU: payload + one header per first-copy fragment,
	// as core cut them.
	frags := float64(snd.Stats.Fragments) / float64(snd.Stats.ADUs)
	wirePerADU := float64(aduBytes) + frags*alf.HeaderSize
	p.PIntactPredicted = math.Pow(1-f3BER, 8*wirePerADU)

	damaged := rcv.Stats.ChecksumFails + rcv.Stats.HeaderDrops
	// Damaged counts include retransmissions; approximate the intact
	// probability over all transmissions.
	allTx := snd.Stats.ADUs + snd.Stats.ResentADUs
	if allTx > 0 {
		p.PIntactMeasured = 1 - float64(damaged)/float64(allTx)
	}
	p.Resends = snd.Stats.ResentADUs
	p.GoodputMbps = stats.Mbps(int64(f3Bytes), time.Duration(done))
	p.Overhead = float64(ab.Stats.SentBytes) / float64(f3Bytes)
	return p, nil
}

// F4Point is one cell-loss sample of the ATM experiment: ADUs ride an
// AAL3/4-style adaptation layer over 53-byte cells; cell loss surfaces
// as whole-ADU loss detected by the adaptation layer's sequence
// numbers, and ALF recovery repairs it.
type F4Point struct {
	CellLossPct float64
	// PADUPredicted is (1-p)^cells: the chance all of an ADU's cells
	// survive.
	PADUPredicted float64
	// PADUMeasured is the fraction of ADU transmissions that
	// reassembled.
	PADUMeasured float64
	// GoodputMbps is app bytes over completion (recovery included).
	GoodputMbps float64
	// CellsPerADU is the segmentation factor.
	CellsPerADU int
	Resends     int64
}

// F4's transfer of 512 KB, its ADU size and its STM-1-ish link rate.
const (
	f4Bytes    = 512 << 10
	f4ADUBytes = 4096
	f4LinkBps  = 150e6
)

// RunF4 measures one cell-loss point. The ALF fragment stream is
// segmented into cells below the ALF layer and reassembled above the
// link, so the ALF fragment is the AAL "message".
func RunF4(seed int64, cellLossPct float64) (F4Point, error) {
	p := F4Point{CellLossPct: cellLossPct}

	s := sim.NewScheduler()
	n := netsim.New(s, seed)
	a := n.NewNode("a")
	b := n.NewNode("b")
	// Forward path carries cells; reverse path carries ALF control.
	ab := n.NewLink(a, b, netsim.LinkConfig{
		RateBps: f4LinkBps, Delay: time.Millisecond,
		MTU: atm.CellSize, LossProb: cellLossPct / 100,
	})
	ba := n.NewLink(b, a, netsim.LinkConfig{Delay: time.Millisecond})

	acfg := alf.Config{
		// One ALF fragment per ADU here: the adaptation layer does the
		// segmentation (MTU covers the ADU whole).
		MTU:          f4ADUBytes + alf.HeaderSize + 8,
		NackDelay:    5 * time.Millisecond,
		NackInterval: 5 * time.Millisecond,
		MaxNacks:     1000,
		HoldTime:     300 * time.Second,
		RateBps:      f4LinkBps,
	}
	seg := atm.NewSegmenter(1)
	toCells := func(pkt []byte) error {
		seg.Segment(pkt, func(cell []byte) { ab.Send(cell) })
		return nil
	}
	snd, err := alf.NewSender(s, toCells, acfg)
	if err != nil {
		return p, err
	}
	snd.SendRef = func(ref *buf.Ref) error {
		defer ref.Release() // the segmenter copies the packet into cells
		return toCells(ref.Bytes())
	}
	rcv, err := alf.NewReceiver(s, ba.Send, acfg)
	if err != nil {
		return p, err
	}
	var aduArrivals int64 // AAL messages that were ALF DATA fragments
	reasm := atm.NewReassembler(1, func(mid uint16, msg []byte) {
		if wire.TypeOf(msg) == wire.TypeData {
			aduArrivals++
		}
		rcv.HandlePacket(msg)
	})
	a.SetHandler(func(pk *netsim.Packet) { snd.HandleControl(pk.Payload) })
	b.SetHandler(func(pk *netsim.Packet) { reasm.Cell(pk.Payload) })

	total := (f4Bytes + f4ADUBytes - 1) / f4ADUBytes
	received := 0
	var done sim.Time
	rcv.OnADU = func(adu alf.ADU) {
		received++
		if received == total {
			done = s.Now()
		}
	}
	if err := sendBulk(snd, f4Bytes, f4ADUBytes, f4ADUBytes); err != nil {
		return p, err
	}
	if err := s.Run(); err != nil {
		return p, err
	}
	if received != total {
		return p, fmt.Errorf("f4: delivered %d of %d ADUs at %.1f%% cell loss",
			received, total, cellLossPct)
	}

	p.CellsPerADU = atm.CellsFor(f4ADUBytes + alf.HeaderSize)
	p.PADUPredicted = math.Pow(1-cellLossPct/100, float64(p.CellsPerADU))
	allTx := snd.Stats.ADUs + snd.Stats.ResentADUs
	if allTx > 0 {
		p.PADUMeasured = float64(aduArrivals) / float64(allTx)
	}
	p.Resends = snd.Stats.ResentADUs
	p.GoodputMbps = stats.Mbps(int64(f4Bytes), time.Duration(done))
	return p, nil
}
