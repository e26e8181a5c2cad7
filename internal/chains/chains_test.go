package chains

import (
	"strings"
	"testing"

	"fastreg/internal/crucialinfo"
	"fastreg/internal/protocols"
	"fastreg/internal/register"
	"fastreg/internal/types"
)

// TestAlphaChainFullInfo reproduces Phase 1 (Fig 3, left): along chain α
// the read's return value flips from "2" to "1", locating the critical
// server.
func TestAlphaChainFullInfo(t *testing.T) {
	for _, s := range []int{3, 4, 5, 6, 7} {
		f, err := NewFamily(crucialinfo.New(), s)
		if err != nil {
			t.Fatal(err)
		}
		alpha, err := f.BuildAlpha()
		if err != nil {
			t.Fatal(err)
		}
		if len(alpha.Outcomes) != s+1 {
			t.Fatalf("S=%d: chain length %d, want %d", s, len(alpha.Outcomes), s+1)
		}
		// Head: W1 ≺ W2 ≺ R1 all skip-free → R1 returns W2's value.
		head := alpha.Outcomes[0].Result("R1")
		if !head.Done || head.Value.Data != "2" {
			t.Fatalf("S=%d: α0 R1 = %v, want \"2\"", s, head.Value)
		}
		// End of chain: indistinguishable from the true tail.
		if !alpha.IndistinguishableTail() {
			t.Errorf("S=%d: α_S distinguishable from α_tail", s)
		}
		last := alpha.Outcomes[s].Result("R1")
		tail := alpha.Tail.Result("R1")
		if last.Value != tail.Value {
			t.Errorf("S=%d: α_S R1 = %v but α_tail R1 = %v despite identical views", s, last.Value, tail.Value)
		}
		if alpha.Critical == 0 {
			t.Fatalf("S=%d: no critical server found", s)
		}
		// The flip is exactly at the critical server.
		before := alpha.Outcomes[alpha.Critical-1].Result("R1").Value
		after := alpha.Outcomes[alpha.Critical].Result("R1").Value
		if before == after {
			t.Errorf("S=%d: no flip at reported critical server s%d", s, alpha.Critical)
		}
	}
}

// TestBetaChainFullInfo reproduces Phase 2: the modified tails are
// indistinguishable to R2, and chain β's two ends disagree.
func TestBetaChainFullInfo(t *testing.T) {
	f, err := NewFamily(crucialinfo.New(), 5)
	if err != nil {
		t.Fatal(err)
	}
	alpha, err := f.BuildAlpha()
	if err != nil {
		t.Fatal(err)
	}
	beta, err := f.BuildBeta(alpha)
	if err != nil {
		t.Fatal(err)
	}
	if !beta.TailsIndistinguishable() {
		t.Error("R2 distinguished the modified tails β′_S and β″_S")
	}
	if got := beta.PrimeTail.Result("R2").Value; got != beta.DoublePrimeTail.Result("R2").Value {
		t.Errorf("R2 returned different values in indistinguishable tails: %v vs %v",
			got, beta.DoublePrimeTail.Result("R2").Value)
	}
	if len(beta.Outcomes) != f.S+1 {
		t.Fatalf("chain β length %d", len(beta.Outcomes))
	}
	// R2 skips the critical server in every β execution.
	for i, spec := range beta.Specs {
		if !spec.Skips(beta.Critical, rtR2[1]) || !spec.Skips(beta.Critical, rtR2[2]) {
			t.Errorf("β%d: R2 does not skip the critical server s%d", i, beta.Critical)
		}
	}
	// The choice rule: the head's R1 value differs from the tail R2 value.
	headR1 := beta.Outcomes[0].Result("R1").Value
	tailR2 := beta.PrimeTail.Result("R2").Value
	if headR1 == tailR2 {
		t.Errorf("chain choice failed: head R1 %v equals tail R2 %v", headR1, tailR2)
	}
}

// TestBetaNeedsCriticalServer: Phase 2 requires a Phase 1 flip.
func TestBetaNeedsCriticalServer(t *testing.T) {
	f, err := NewFamily(crucialinfo.New(), 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.BuildBeta(&AlphaChain{}); err == nil {
		t.Fatal("BuildBeta accepted a chain without critical server")
	}
}

// TestZigzagLinksFullInfo reproduces Phase 3 (Figs 4–7): every horizontal
// and diagonal indistinguishability holds mechanically.
func TestZigzagLinksFullInfo(t *testing.T) {
	for _, s := range []int{3, 5} {
		f, err := NewFamily(crucialinfo.New(), s)
		if err != nil {
			t.Fatal(err)
		}
		alpha, err := f.BuildAlpha()
		if err != nil {
			t.Fatal(err)
		}
		beta, err := f.BuildBeta(alpha)
		if err != nil {
			t.Fatal(err)
		}
		zig, err := f.BuildZigzag(beta)
		if err != nil {
			t.Fatal(err)
		}
		if len(zig.Links) != s {
			t.Fatalf("S=%d: %d links, want %d", s, len(zig.Links), s)
		}
		if !zig.AllLinksHold() {
			for _, l := range zig.Links {
				t.Logf("link k=%d simple=%v h=(%v,%v) d=(%v,%v) γ≈γ′=%v",
					l.K, l.Simple, l.HorizontalR1, l.HorizontalR2, l.DiagonalR2, l.DiagonalR1, l.GammasAgree)
			}
			t.Fatalf("S=%d: an indistinguishability link failed", s)
		}
		// Exactly one link is the simple k+1 = i1 case.
		simple := 0
		for _, l := range zig.Links {
			if l.Simple {
				simple++
				if l.K+1 != zig.Critical {
					t.Errorf("simple link at k=%d but critical is s%d", l.K, zig.Critical)
				}
			}
		}
		if simple != 1 {
			t.Errorf("S=%d: %d simple links, want 1", s, simple)
		}
	}
}

// TestFindViolationFullInfo is the headline: the executable argument
// exhibits a concrete atomicity violation for the full-info fast-write
// candidate, with every constructed indistinguishability intact — i.e. the
// violation is forced by fast writes, not by a protocol quirk.
func TestFindViolationFullInfo(t *testing.T) {
	for _, s := range []int{3, 4, 5, 6, 7} {
		rep, err := FindViolation(crucialinfo.New(), s)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Violations) == 0 {
			t.Fatalf("S=%d: no violation found — Theorem 1 says one must exist", s)
		}
		if !rep.LinksHold {
			t.Errorf("S=%d: indistinguishability links failed", s)
		}
		v := rep.First()
		if v.Result.Atomic {
			t.Fatal("first violation marked atomic")
		}
		if v.Outcome == nil || len(v.Outcome.History.Completed()) == 0 {
			t.Error("violation lacks its exhibit history")
		}
	}
}

// TestFindViolationNaive: the tag-based naive fast write already fails at
// the chain ends (its reads cannot respect the real-time write order).
func TestFindViolationNaive(t *testing.T) {
	rep, err := FindViolation(protocols.Must("W1R2"), 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Violations) == 0 {
		t.Fatal("naive W1R2 passed the argument")
	}
	if got := rep.First().Phase; got != "alpha" {
		t.Errorf("naive protocol should fail already in phase 1, failed in %s", got)
	}
	if rep.String() == "" {
		t.Error("empty report string")
	}
}

// TestSieveFullInfo reproduces Fig 8: with an adversary that lets R2's
// first round-trip flip crucial info on Σ1, the sieve isolates Σ2 and the
// shortened chain α̂ still flips.
func TestSieveFullInfo(t *testing.T) {
	sigma1 := []types.ProcID{types.Server(4), types.Server(5)}
	p := crucialinfo.NewWithFlips(types.Reader(2), sigma1)
	f, err := NewFamily(p, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Sieve()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sigma1) != 2 || res.Sigma1[0] != 4 || res.Sigma1[1] != 5 {
		t.Fatalf("Σ1 = %v, want [4 5]", res.Sigma1)
	}
	if len(res.Sigma2) != 3 {
		t.Fatalf("Σ2 = %v", res.Sigma2)
	}
	// Fig 8: affected servers flipped "12" → "21"; unaffected kept "12".
	for _, srv := range res.Sigma1 {
		if res.CrucialRef[srv] != "12" || res.CrucialHat[srv] != "21" {
			t.Errorf("s%d: crucial %q → %q, want 12 → 21", srv, res.CrucialRef[srv], res.CrucialHat[srv])
		}
	}
	for _, srv := range res.Sigma2 {
		if res.CrucialHat[srv] != "12" {
			t.Errorf("s%d: unaffected server has crucial %q", srv, res.CrucialHat[srv])
		}
	}
	// The shortened chain still flips R1's return.
	if res.Critical == 0 {
		t.Fatal("shortened chain α̂ did not flip")
	}
	head := res.AlphaHat[0].Result("R1").Value
	tail := res.AlphaHat[len(res.AlphaHat)-1].Result("R1").Value
	if head == tail {
		t.Errorf("α̂ ends agree: %v", head)
	}
	if len(res.Verdicts) != len(res.AlphaHat) {
		t.Error("verdict bookkeeping wrong")
	}
}

// TestSieveNoAdversary: with the plain full-info protocol a blind first
// round-trip cannot change crucial info, so Σ1 is empty and the full chain
// survives the sieve.
func TestSieveNoAdversary(t *testing.T) {
	f, err := NewFamily(crucialinfo.New(), 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := f.Sieve()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sigma1) != 0 {
		t.Fatalf("Σ1 = %v, want empty (append-only logs cannot flip)", res.Sigma1)
	}
	if len(res.Sigma2) != 5 {
		t.Fatalf("Σ2 = %v", res.Sigma2)
	}
	if res.Critical == 0 {
		t.Fatal("full-length α̂ did not flip")
	}
}

// TestSieveRejectsNonFullInfo: the sieve reads server logs, which concrete
// protocols don't expose.
func TestSieveRejectsNonFullInfo(t *testing.T) {
	f, err := NewFamily(protocols.Must("W1R2"), 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Sieve(); err == nil {
		t.Fatal("sieve accepted a non-full-info protocol")
	}
}

// TestReportStringMentionsPhases sanity-checks the report rendering: the
// title names the candidate's W1Rk, the phases that ran are listed, and a
// chain α without a flip says so instead of naming a server s0.
func TestReportStringMentionsPhases(t *testing.T) {
	for _, tc := range []struct {
		name  string
		p     register.Protocol
		s     int
		want  []string
		avoid []string
	}{
		{"FullInfo", crucialinfo.New(), 3,
			[]string{"W1R2 impossibility", "phase 1", "critical server s2", "phase 2", "phase 3", "first violation"}, nil},
		{"W1R2", protocols.Must("W1R2"), 5,
			[]string{"W1R2 impossibility", "no critical server", "first violation: alpha/α_tail"},
			[]string{"s0", "phase 2"}},
		{"W1R3", crucialinfo.NewKRound(3), 5,
			[]string{"W1R3 impossibility", "protocol=W1R3-fullinfo", "phase 3", "first violation"},
			[]string{"W1R2"}},
	} {
		rep, err := FindViolation(tc.p, tc.s)
		if err != nil {
			t.Fatal(err)
		}
		s := rep.String()
		for _, frag := range tc.want {
			if !strings.Contains(s, frag) {
				t.Errorf("%s: report missing %q:\n%s", tc.name, frag, s)
			}
		}
		for _, frag := range tc.avoid {
			if strings.Contains(s, frag) {
				t.Errorf("%s: report contains %q:\n%s", tc.name, frag, s)
			}
		}
	}
}
