package soak

import (
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	alf "repro/internal/core"
	"repro/internal/metrics"
)

// TestLedgerClassifies feeds the ledger one ADU per way the
// exactly-once account can break and checks each is named for what it
// is, under the family's prefix, and that clean ADUs pass. Submissions
// alternate between two sizes, so each delivery is held to its own.
func TestLedgerClassifies(t *testing.T) {
	const n = 64
	var v verdict
	l := newLedger(&v, "s1: ", []int{n, 2 * n}, nil, nil)
	adu := func(name, k uint64) alf.ADU {
		return alf.ADU{Name: name, Tag: aduTag(k), Data: l.payload(k)}
	}
	for name := uint64(0); name < 8; name++ {
		l.accept(name, name+100) // wire names and submission indices differ
	}
	l.accept(8, 109)
	first := func(a alf.ADU, want bool) {
		t.Helper()
		if got := l.deliver(a); got != want {
			t.Errorf("deliver(%d) = %v, want %v", a.Name, got, want)
		}
	}
	first(adu(0, 100), true) // clean delivery
	l.lose(1)                // clean loss
	first(adu(2, 102), true) // delivered twice
	first(adu(2, 102), false)
	l.lose(3) // lost twice
	l.lose(3)
	first(adu(4, 104), true) // both
	if k, known := l.lose(4); !known || k != 104 {
		t.Errorf("lose(4) = %d, %v; want 104, true", k, known)
	}
	// 5: unaccounted.
	bad := adu(6, 106)
	bad.Tag++
	first(bad, true) // wrong tag: still the first delivery
	bad = adu(7, 107)
	bad.Data[n/2] ^= 1
	first(bad, true)
	// The right pattern at the wrong length: submission 109 carries 2n.
	first(alf.ADU{Name: 8, Tag: aduTag(109), Data: aduPayload(109, n)}, true)
	first(adu(9, 109), false) // never accepted
	if _, known := l.lose(10); known {
		t.Error("lose(10) knows a name nobody accepted")
	}

	atDelivery := []string{
		fmt.Sprintf("s1: ADU 6 delivered with tag %d, want %d", aduTag(106)+1, aduTag(106)),
		"s1: ADU 7 delivered corrupted",
		"s1: ADU 8 delivered corrupted",
		"s1: ADU 9 delivered but never accepted",
	}
	if !slices.Equal(v.Violations, atDelivery) {
		t.Fatalf("violations at delivery time:\n%q\nwant\n%q", v.Violations, atDelivery)
	}

	v.Violations = nil
	if broken := l.settle(false); !slices.Equal(broken, []uint64{2, 3, 4}) {
		t.Errorf("settle(false) broke %v, want [2 3 4]", broken)
	}
	want := []string{
		"s1: ADU 2 delivered 2 times",
		"s1: ADU 3 reported lost 2 times",
		"s1: ADU 4 both delivered and reported lost",
	}
	if !slices.Equal(v.Violations, want) {
		t.Errorf("settle(false):\n%q\nwant\n%q", v.Violations, want)
	}
	v.Violations = nil
	if broken := l.settle(true); !slices.Equal(broken, []uint64{2, 3, 4, 5}) {
		t.Errorf("settle(true) broke %v, want [2 3 4 5]", broken)
	}
	if got, want := v.Violations[len(v.Violations)-1], "s1: ADU 5 unaccounted for (neither delivered nor lost)"; got != want {
		t.Errorf("settle(true) ends %q, want %q", got, want)
	}
	if v.Passed() {
		t.Error("verdict with violations passed")
	}
}

// TestSeriesIDsPinned holds the registry's names still: the series-ID
// list of one seeded chaos run plus one custody-mode DTN run, captured
// in testdata before metrics.BindStats replaced the hand-written
// tables, must still all be there, and nothing may have appeared except
// the four series those tables had lost.
func TestSeriesIDsPinned(t *testing.T) {
	golden, err := os.ReadFile("testdata/series_ids.golden")
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	if _, err := Run(Config{Seed: 1, Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	if _, err := RunDTN(DTNConfig{Seed: 1, Metrics: reg}); err != nil {
		t.Fatal(err)
	}
	have := map[string]bool{}
	reg.Visit(func(id string, _ metrics.Kind, _ int64, _ *metrics.Histogram) { have[id] = true })

	for _, id := range strings.Fields(string(golden)) {
		if !have[id] {
			t.Errorf("series %s is gone", id)
		}
		delete(have, id)
	}
	for _, id := range []string{
		"core.recv.auth_fails{stream=0}",
		"relay.ctrl_forwarded{relay=r1}", "relay.ctrl_forwarded{relay=r2}",
		"relay.fb_forwarded{relay=r1}", "relay.fb_forwarded{relay=r2}",
		"relay.hb_forwarded{relay=r1}", "relay.hb_forwarded{relay=r2}",
	} {
		if !have[id] {
			t.Errorf("new series %s is missing", id)
		}
		delete(have, id)
	}
	for id := range have {
		t.Errorf("unexpected new series %s", id)
	}
}
