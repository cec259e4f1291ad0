package experiments

import (
	"fmt"
	"testing"
	"time"

	alf "repro/internal/core"
	"repro/internal/xcode"
)

// Short timing budgets keep the wall-clock experiments quick in tests;
// the harness uses longer ones for stable numbers.
const testMinTime = 5 * time.Millisecond

// eventually retries a wall-clock-sensitive assertion with fresh
// measurements: a 5 ms micro-timing can be preempted, on a busy host
// even at a ratio of 2x, so a single noisy sample must not fail the
// shape check. The shape must hold in SOME window.
func eventually(t *testing.T, attempts int, f func() error) {
	t.Helper()
	var err error
	for i := 0; i < attempts; i++ {
		if err = f(); err == nil {
			return
		}
	}
	t.Error(err)
}

func TestKernelsShape(t *testing.T) {
	eventually(t, 5, func() error {
		r := RunKernels(4096, testMinTime)
		if r.Copy <= 0 || r.Checksum <= 0 {
			t.Fatalf("degenerate kernel rates: %+v", r)
		}
		// E3 shape: BER conversion much slower than copy (paper: 4-5x).
		if r.BEREncode >= r.Copy/2 {
			return fmt.Errorf("BER encode (%v) not substantially slower than copy (%v)",
				r.BEREncode, r.Copy)
		}
		// LWTS is the tuned alternative: far faster than BER.
		if r.LWTSEncode <= r.BEREncode {
			return fmt.Errorf("LWTS (%v) not faster than BER (%v)", r.LWTSEncode, r.BEREncode)
		}
		// E5 shape: fusing the checksum into conversion costs little
		// (paper: 28 -> 24 Mb/s, a ~15% hit; allow up to 50%).
		if r.BEREncodeChecksum < r.BEREncode/2 {
			return fmt.Errorf("convert+checksum (%v) lost too much vs convert (%v)",
				r.BEREncodeChecksum, r.BEREncode)
		}
		return nil
	})
}

func TestPipelineShape(t *testing.T) {
	eventually(t, 5, func() error {
		r := RunPipeline(256<<10, testMinTime)
		for k := 1; k <= 5; k++ {
			if r.LayeredMbps[k] <= 0 || r.FusedMbps[k] <= 0 {
				t.Fatalf("k=%d: degenerate rates", k)
			}
		}
		// Layered throughput must fall as stages stack up (a 5x effect).
		if r.LayeredMbps[5] >= r.LayeredMbps[1] {
			return fmt.Errorf("layered did not slow with depth: k1=%v k5=%v",
				r.LayeredMbps[1], r.LayeredMbps[5])
		}
		return nil
	})
}

func TestControlVsManipulationShape(t *testing.T) {
	eventually(t, 5, func() error {
		r := RunControl(4096, testMinTime)
		if r.ControlNs <= 0 || r.ManipulationNs <= 0 {
			t.Fatalf("degenerate: %+v", r)
		}
		// §4: manipulation dwarfs control for a 4 KB packet.
		if r.ManipulationNs < 5*r.ControlNs {
			return fmt.Errorf("manipulation (%v ns) not >> control (%v ns)",
				r.ManipulationNs, r.ControlNs)
		}
		return nil
	})
}

// TestStackShape keeps what holds on any host: both stacks run and
// report a rate. The E4 ratios are wall-clock (TestStackTiming).
func TestStackShape(t *testing.T) {
	rep, err := RunStack(xcode.BER{}, 64<<10, 4, testMinTime)
	if err != nil {
		t.Fatal(err)
	}
	if rep.OctetMbps <= 0 || rep.IntMbps <= 0 {
		t.Fatalf("degenerate stack rates: %+v", rep)
	}
}

func TestF2Shape(t *testing.T) {
	clean, err := RunF2(1, 0)
	if err != nil {
		t.Fatal(err)
	}
	lossy, err := RunF2(1, 5)
	if err != nil {
		t.Fatal(err)
	}
	// At zero loss both paths complete in comparable time.
	ratio0 := clean.OTPDone.Seconds() / clean.ALFDone.Seconds()
	if ratio0 < 0.5 || ratio0 > 2 {
		t.Errorf("clean-link completion ratio OTP/ALF = %.2f, want ~1", ratio0)
	}
	// Under loss the ALF pipeline stays busier and finishes sooner.
	if lossy.ALFDone >= lossy.OTPDone {
		t.Errorf("ALF (%v) not faster than OTP (%v) at 5%% loss",
			lossy.ALFDone, lossy.OTPDone)
	}
	if lossy.ALFLost != 0 {
		t.Errorf("ALF lost %d ADUs with recovery enabled", lossy.ALFLost)
	}
	// OTP's app idles more under loss than ALF's.
	if lossy.OTPIdleFrac <= lossy.ALFIdleFrac {
		t.Errorf("OTP idle %.3f <= ALF idle %.3f under loss",
			lossy.OTPIdleFrac, lossy.ALFIdleFrac)
	}
}

func TestF3Shape(t *testing.T) {
	// With a 34-byte header and BER b, the goodput optimum sits near
	// sqrt(2*34/(8b)) ~ 2 KB at F3's b = 2e-6; 64 B drowns in headers and
	// 128 KB drowns in whole-ADU retransmissions.
	small, err := RunF3(3, 64)
	if err != nil {
		t.Fatal(err)
	}
	mid, err := RunF3(3, 1024)
	if err != nil {
		t.Fatal(err)
	}
	big, err := RunF3(3, 128<<10)
	if err != nil {
		t.Fatal(err)
	}
	// Monotone survival probability in size.
	if !(small.PIntactPredicted > mid.PIntactPredicted &&
		mid.PIntactPredicted > big.PIntactPredicted) {
		t.Errorf("predicted survival not monotone: %v %v %v",
			small.PIntactPredicted, mid.PIntactPredicted, big.PIntactPredicted)
	}
	// Interior optimum: the mid size beats both extremes on goodput.
	if mid.GoodputMbps <= small.GoodputMbps {
		t.Errorf("mid (%v) vs small (%v): header overhead should hurt tiny ADUs",
			mid.GoodputMbps, small.GoodputMbps)
	}
	if mid.GoodputMbps <= big.GoodputMbps {
		t.Errorf("mid (%v) vs big (%v): whole-ADU retransmission should hurt big ADUs",
			mid.GoodputMbps, big.GoodputMbps)
	}
	// Big ADUs must show heavy resends.
	if big.Resends == 0 {
		t.Error("big ADUs saw no resends at this BER")
	}
}

func TestF4Shape(t *testing.T) {
	clean, err := RunF4(5, 0)
	if err != nil {
		t.Fatal(err)
	}
	lossy, err := RunF4(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if clean.PADUMeasured < 0.999 {
		t.Errorf("clean cells lost ADUs: %v", clean.PADUMeasured)
	}
	if clean.CellsPerADU < 90 {
		t.Errorf("cells per ADU = %d, expected ~94 for 4 KB over 44-byte payloads",
			clean.CellsPerADU)
	}
	// Measured ADU survival must track the (1-p)^cells prediction.
	diff := lossy.PADUMeasured - lossy.PADUPredicted
	if diff < -0.15 || diff > 0.15 {
		t.Errorf("measured %v vs predicted %v survival", lossy.PADUMeasured, lossy.PADUPredicted)
	}
	if lossy.Resends == 0 {
		t.Error("no recovery at 1% cell loss")
	}
	if lossy.GoodputMbps >= clean.GoodputMbps {
		t.Error("cell loss did not cost goodput")
	}
}

func TestF6Shape(t *testing.T) {
	one, err := RunF6(7, 1)
	if err != nil {
		t.Fatal(err)
	}
	eight, err := RunF6(7, 8)
	if err != nil {
		t.Fatal(err)
	}
	// With one worker the two layouts are equivalent-ish.
	if one.Speedup > 1.3 {
		t.Errorf("1-worker speedup = %.2f, want ~1", one.Speedup)
	}
	// With eight workers ALF dispatch must scale; serial must not.
	if eight.ALFMbps < one.ALFMbps*4 {
		t.Errorf("ALF did not scale: 1w=%v 8w=%v Mb/s", one.ALFMbps, eight.ALFMbps)
	}
	if eight.SerialMbps > one.SerialMbps*1.5 {
		t.Errorf("serial hot spot scaled unexpectedly: 1w=%v 8w=%v Mb/s",
			one.SerialMbps, eight.SerialMbps)
	}
	if eight.Speedup < 3 {
		t.Errorf("8-worker speedup = %.2f, want >= ~4", eight.Speedup)
	}
}

func TestF7Shape(t *testing.T) {
	clean, err := RunF7(9, 0)
	if err != nil {
		t.Fatal(err)
	}
	lossy, err := RunF7(9, 3)
	if err != nil {
		t.Fatal(err)
	}
	if clean.ALFOnTimeFrac < 0.95 || clean.OTPOnTimeFrac < 0.95 {
		t.Errorf("clean link should render ~all frames: alf=%v otp=%v",
			clean.ALFOnTimeFrac, clean.OTPOnTimeFrac)
	}
	// Under loss, ALF renders most frames (complete or partial) on
	// time; the reliable ordered stream stalls past deadlines.
	alfUsable := lossy.ALFOnTimeFrac + lossy.ALFPartialFrac
	if alfUsable < 0.9 {
		t.Errorf("ALF usable frames = %v at 3%% loss", alfUsable)
	}
	if lossy.OTPOnTimeFrac >= lossy.ALFOnTimeFrac+lossy.ALFPartialFrac {
		t.Errorf("ordered transport (%v) outperformed ALF (%v) under loss",
			lossy.OTPOnTimeFrac, alfUsable)
	}
	if lossy.ALFResends != 0 {
		t.Error("NoRetransmit stream resent")
	}
	if lossy.OTPRetransmits == 0 {
		t.Error("reliable stream never retransmitted at 3% loss")
	}
}

func TestF8Shape(t *testing.T) {
	byPolicy := map[alf.Policy]F8Point{}
	for _, pol := range F8Policies {
		pt, err := RunF8(11, pol)
		if err != nil {
			t.Fatal(err)
		}
		byPolicy[pt.Policy] = pt
	}
	if len(byPolicy) != 3 {
		t.Fatalf("points = %d", len(byPolicy))
	}
	sb := byPolicy[alf.SenderBuffered]
	ar := byPolicy[alf.AppRecompute]
	nr := byPolicy[alf.NoRetransmit]

	if sb.DeliveredFrac < 0.999 || ar.DeliveredFrac < 0.999 {
		t.Errorf("recovering policies dropped data: sb=%v ar=%v",
			sb.DeliveredFrac, ar.DeliveredFrac)
	}
	if nr.DeliveredFrac > 0.995 {
		t.Errorf("no-retransmit delivered everything (%v) at 3%% loss?", nr.DeliveredFrac)
	}
	if nr.ReportedLost == 0 {
		t.Error("no-retransmit reported no losses")
	}
	// The memory trade: sender-buffered retains, recompute does not.
	if sb.MaxBufferedKB <= 0 {
		t.Error("sender-buffered held no memory")
	}
	if ar.MaxBufferedKB != 0 {
		t.Errorf("app-recompute retained %v KB", ar.MaxBufferedKB)
	}
	if sb.Resends == 0 || ar.Recomputes == 0 {
		t.Errorf("recovery paths unused: resends=%d recomputes=%d", sb.Resends, ar.Recomputes)
	}
}

func TestA2Shape(t *testing.T) {
	inband, err := RunA2(13, 1<<20, 0)
	if err != nil {
		t.Fatal(err)
	}
	oob, err := RunA2(13, 1<<20, 5*time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if oob.AcksSent >= inband.AcksSent {
		t.Errorf("delayed acks (%d) not fewer than immediate (%d)",
			oob.AcksSent, inband.AcksSent)
	}
	// Throughput must not collapse from batching acks.
	if oob.GoodputMbps < inband.GoodputMbps/2 {
		t.Errorf("delayed acks halved goodput: %v vs %v",
			oob.GoodputMbps, inband.GoodputMbps)
	}
}

// f9ByMode runs every F9 mode at one loss rate, keyed by mode.
func f9ByMode(t *testing.T, seed int64, lossPct float64) map[string]F9Point {
	t.Helper()
	byMode := map[string]F9Point{}
	for _, mode := range F9Modes {
		pt, err := RunF9(seed, lossPct, mode)
		if err != nil {
			t.Fatal(err)
		}
		byMode[pt.Mode] = pt
	}
	return byMode
}

func TestF9Shape(t *testing.T) {
	byMode := f9ByMode(t, 15, 3)
	none, nack, fec, both := byMode["none"], byMode["nack"], byMode["fec"], byMode["fec+nack"]

	// Raw NoRetransmit loses ADUs; each recovery mechanism claws back.
	if none.DeliveredFrac > 0.95 {
		t.Errorf("baseline delivered %v at 3%% loss; too clean to discriminate", none.DeliveredFrac)
	}
	if nack.DeliveredFrac < 0.999 || both.DeliveredFrac < 0.999 {
		t.Errorf("nack-capable modes incomplete: nack=%v both=%v",
			nack.DeliveredFrac, both.DeliveredFrac)
	}
	if fec.DeliveredFrac <= none.DeliveredFrac {
		t.Errorf("FEC (%v) did not beat no-recovery (%v)", fec.DeliveredFrac, none.DeliveredFrac)
	}
	if fec.FECRecovered == 0 || both.FECRecovered == 0 {
		t.Error("FEC modes recovered nothing")
	}
	// FEC pays a fixed proactive overhead (~1 + 1/group); NACK pays a
	// reactive one proportional to loss. At low loss NACK is cheaper on
	// the wire; FEC's constant cost wins on latency.
	lowBy := f9ByMode(t, 15, 0.5)
	if lowBy["nack"].WireOverhead >= lowBy["fec"].WireOverhead {
		t.Errorf("at 0.5%% loss NACK overhead (%v) should undercut FEC's fixed %v",
			lowBy["nack"].WireOverhead, lowBy["fec"].WireOverhead)
	}
	if fec.WireOverhead < 1.2 || fec.WireOverhead > 1.5 {
		t.Errorf("FEC overhead %v, want ~1.25-1.4 (group 4 + headers)", fec.WireOverhead)
	}
	if both.P95Latency >= nack.P95Latency {
		t.Errorf("fec+nack p95 latency (%v) not below nack-only (%v)",
			both.P95Latency, nack.P95Latency)
	}
	if both.Resends >= nack.Resends {
		t.Errorf("fec+nack resends (%d) not below nack-only (%d)", both.Resends, nack.Resends)
	}
}

// TestILPStackShape keeps what holds on any host: the ALF/ILP stack
// runs and reports a rate. E6's comparisons with the layered stack are
// wall-clock (TestILPStackTiming).
func TestILPStackShape(t *testing.T) {
	ilpRep, err := RunStackILP(64<<10, 4, testMinTime)
	if err != nil {
		t.Fatal(err)
	}
	if ilpRep.OctetMbps <= 0 || ilpRep.IntMbps <= 0 {
		t.Fatalf("degenerate: %+v", ilpRep)
	}
}

func TestA3BurstVsIndependentFEC(t *testing.T) {
	// Average over a few seeds: burst processes are high-variance.
	var indep, burst, indepLoss, burstLoss float64
	const seeds = 3
	for i := int64(0); i < seeds; i++ {
		ip, err := RunA3(100+i, false)
		if err != nil {
			t.Fatal(err)
		}
		bp, err := RunA3(200+i, true)
		if err != nil {
			t.Fatal(err)
		}
		indep += ip.DeliveredFrac / seeds
		burst += bp.DeliveredFrac / seeds
		indepLoss += ip.AvgLossPct / seeds
		burstLoss += bp.AvgLossPct / seeds
	}
	// The loss processes must be comparable in average rate.
	if burstLoss < indepLoss/3 || burstLoss > indepLoss*3 {
		t.Fatalf("loss rates incomparable: indep %.2f%% vs burst %.2f%%", indepLoss, burstLoss)
	}
	// FEC must recover materially less under bursts.
	if burst >= indep {
		t.Errorf("FEC under bursts (%.4f) not worse than independent (%.4f)", burst, indep)
	}
	if indep < 0.97 {
		t.Errorf("FEC under independent 3%% loss delivered only %.4f", indep)
	}
}
