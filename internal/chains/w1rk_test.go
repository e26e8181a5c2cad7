package chains

import (
	"testing"

	"fastreg/internal/crucialinfo"
)

// TestW1RkReducesToW1R2 executes the Section 3 note: "the impossibility
// proof of W1R2 implementations also applies for W1Rk implementations for
// k ≥ 3. We can combine the round-trips 2, 3, …, k as if they were one
// single round-trip." The engine runs the full three-phase argument against
// W1R2, W1R3 and W1R4 full-info candidates, moving each read's rounds 2…k
// as one block, and must find the forced violation for every k.
func TestW1RkReducesToW1R2(t *testing.T) {
	for _, k := range []int{2, 3, 4} {
		for _, s := range []int{3, 5} {
			rep, err := FindViolation(crucialinfo.NewKRound(k), s)
			if err != nil {
				t.Fatalf("k=%d S=%d: %v", k, s, err)
			}
			if len(rep.Violations) == 0 {
				t.Fatalf("k=%d S=%d: no violation found — the W1Rk argument failed", k, s)
			}
			if !rep.LinksHold {
				t.Errorf("k=%d S=%d: an indistinguishability link failed", k, s)
			}
			if rep.Alpha.Critical == 0 {
				t.Errorf("k=%d S=%d: no critical server (the merged-unit chain α did not flip)", k, s)
			}
		}
	}
}

// TestW1RkAlphaMatchesW1R2 checks the reduction at the chain level: since
// rounds 2…k are pure queries delivered contiguously, the k-round read's
// return values along chain α coincide with the 2-round read's.
func TestW1RkAlphaMatchesW1R2(t *testing.T) {
	base, err := NewFamily(crucialinfo.New(), 5)
	if err != nil {
		t.Fatal(err)
	}
	alpha2, err := base.BuildAlpha()
	if err != nil {
		t.Fatal(err)
	}
	f3, err := NewFamily(crucialinfo.NewKRound(3), 5)
	if err != nil {
		t.Fatal(err)
	}
	alpha3, err := f3.BuildAlpha()
	if err != nil {
		t.Fatal(err)
	}
	if alpha2.Critical != alpha3.Critical {
		t.Fatalf("critical servers differ: k=2 → s%d, k=3 → s%d", alpha2.Critical, alpha3.Critical)
	}
	for i := range alpha2.Outcomes {
		v2 := alpha2.Outcomes[i].Result("R1").Value
		v3 := alpha3.Outcomes[i].Result("R1").Value
		if v2 != v3 {
			t.Errorf("α%d: k=2 read %v, k=3 read %v", i, v2, v3)
		}
	}
}

// TestKRoundReadLatency: the W1Rk candidate's read really costs k round
// trips (metadata honesty for the latency harness).
func TestKRoundReadMetadata(t *testing.T) {
	p := crucialinfo.NewKRound(4)
	if p.ReadRounds() != 4 || p.WriteRounds() != 1 {
		t.Fatalf("rounds: W%d R%d", p.WriteRounds(), p.ReadRounds())
	}
	if p.Name() != "W1R4-fullinfo" {
		t.Fatalf("name = %q", p.Name())
	}
}

func TestNewKRoundValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewKRound(1) must panic")
		}
	}()
	crucialinfo.NewKRound(1)
}
