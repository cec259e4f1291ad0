package soak

import (
	"testing"
	"time"

	alf "repro/internal/core"
)

// runUDP runs the family and fails the test on any violation, naming
// the first few.
func runUDP(t testing.TB, cfg UDPConfig) *UDPResult {
	t.Helper()
	res, err := RunUDP(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range res.Violations {
		if i == 10 {
			t.Fatalf("... and %d more violations", len(res.Violations)-i)
		}
		t.Errorf("invariant violated: %s", v)
	}
	if !res.Passed() {
		t.FailNow()
	}
	return res
}

// TestUDPTransferAEAD moves authenticated ADUs across real sockets with
// no loss: the fused crypto datapath end to end over the kernel.
func TestUDPTransferAEAD(t *testing.T) {
	res := runUDP(t, UDPConfig{
		ADUs:        50,
		ADUSizes:    []int{4096},
		Suite:       alf.SuiteAEAD,
		SubmitEvery: 500 * time.Microsecond,
	})
	if res.Delivered != 50 || res.Resent != 0 {
		t.Errorf("delivered %d resent %d, want 50/0", res.Delivered, res.Resent)
	}
}

// TestUDPSoakLossy is the headline invariant check: 5% deterministic
// send-side drops, SenderBuffered recovery, AEAD on. Exactly-once,
// byte-intact, fully drained.
func TestUDPSoakLossy(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback soak in -short mode")
	}
	res := runUDP(t, UDPConfig{
		ADUs:     150,
		LossProb: 0.05,
		Seed:     1,
		Suite:    alf.SuiteAEAD,
	})
	t.Logf("soak: %d ADUs in %v, %d wire drops, %d resends, %d early NACKs; %d datagrams sent in %d messages and %d calls, %d received in %d and %d",
		res.Delivered, res.Elapsed.Round(time.Millisecond), res.WireDrops, res.Resent, res.EarlyNacks, res.Sent, res.TxMsgs, res.TxCalls, res.Recvd, res.RxMsgs, res.RxCalls)
	if res.WireDrops == 0 {
		t.Error("lossy conn dropped nothing; soak did not exercise recovery")
	}
	if res.Resent == 0 {
		t.Error("no retransmissions despite drops")
	}
	if res.EarlyNacks == 0 {
		t.Error("no first NACK was timed from evidence; every repair waited NackDelay")
	}
}

// TestUDPSoakFEC repeats the soak with sender FEC and 3% drops, so most
// losses repair forward without NACKs.
func TestUDPSoakFEC(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback soak in -short mode")
	}
	res := runUDP(t, UDPConfig{
		ADUs:     100,
		LossProb: 0.03,
		Seed:     2,
		Suite:    alf.SuiteAEAD,
		FECGroup: 4,
	})
	if res.WireDrops == 0 {
		t.Error("lossy conn dropped nothing; soak did not exercise FEC")
	}
}

// TestUDPSoakScramble runs the legacy suite over real sockets, so both
// cipher planes are exercised off-simulator.
func TestUDPSoakScramble(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback soak in -short mode")
	}
	runUDP(t, UDPConfig{
		ADUs:     60,
		ADUSizes: []int{2000},
		LossProb: 0.04,
		Seed:     3,
		Suite:    alf.SuiteScramble,
	})
}

// TestUDPSoakMixed crowds the send queues: ADUs from one byte to many
// fragments, submitted faster than a loop pass, under 4% drops, so one
// flush holds fragment runs of several lengths, short tails, whole-ADU
// resends and control frames, and cuts them into trains of every shape.
// The invariants are the usual ones.
func TestUDPSoakMixed(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback soak in -short mode")
	}
	res := runUDP(t, UDPConfig{
		ADUs:        600,
		ADUSizes:    []int{1, 200, 3000, 1400, 9000, 64, 20000, 1024, 5},
		LossProb:    0.04,
		Seed:        4,
		Suite:       alf.SuiteAEAD,
		SubmitEvery: 50 * time.Microsecond,
	})
	t.Logf("soak: %d ADUs, %d wire drops, %d resends; %d datagrams sent in %d messages and %d calls, %d received in %d and %d",
		res.Delivered, res.WireDrops, res.Resent, res.Sent, res.TxMsgs, res.TxCalls, res.Recvd, res.RxMsgs, res.RxCalls)
	if res.WireDrops == 0 || res.Resent == 0 {
		t.Errorf("%d wire drops and %d resends; soak did not exercise recovery", res.WireDrops, res.Resent)
	}
}

// BenchmarkUDPLoopback measures goodput of the full AEAD datapath over
// kernel loopback sockets: fragment+encrypt+tag, real sendto/recvfrom,
// verify+decrypt+reassemble.
func BenchmarkUDPLoopback(b *testing.B) {
	const aduBytes = 8192
	res := runUDP(b, UDPConfig{
		ADUs:        b.N,
		ADUSizes:    []int{aduBytes},
		Suite:       alf.SuiteAEAD,
		SubmitEvery: 100 * time.Microsecond,
	})
	b.SetBytes(aduBytes)
	b.ReportMetric(float64(res.Delivered)/res.Elapsed.Seconds(), "ADUs/s")
	// The soak clock is wall time; report its elapsed as the benchmark
	// duration so ns/op and MB/s reflect the transfer, not setup.
	b.ReportMetric(res.Elapsed.Seconds()*1e9/float64(b.N), "wall-ns/op")
}
