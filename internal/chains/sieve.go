package chains

import (
	"fmt"
	"sort"

	"fastreg/internal/atomicity"
	"fastreg/internal/crucialinfo"
	"fastreg/internal/proto"
)

// logHolder is implemented by full-info servers (crucialinfo.LogServer and
// its adversarial wrapper): the sieve needs to read crucial information,
// which only exists in the full-info model.
type logHolder interface {
	Log() []proto.LogEvent
}

// SieveResult is the outcome of the Section 4.2 analysis (Fig 8): the
// partition of servers into Σ1 (crucial info affected by R2's first
// round-trip) and Σ2 (unaffected), and the shortened chain α̂ conducted on
// Σ2 alone.
type SieveResult struct {
	// Sigma1 and Sigma2 partition the servers (1-based indices).
	Sigma1, Sigma2 []int
	// CrucialRef and CrucialHat are each server's crucial info ("12"/"21")
	// without and with R2's first round-trip, respectively.
	CrucialRef, CrucialHat map[int]string
	// AlphaHat are the runs of the shortened chain α̂_0 … α̂_x (x = |Σ2|):
	// α̂_i swaps the writes on the first i servers of Σ2 only.
	AlphaHat []*Outcome
	// Critical is the position in Σ2 (1-based) where R1's return flips; 0
	// if it never flips.
	Critical int
	// Verdicts holds the atomicity verdicts of the α̂ runs.
	Verdicts []Verdict
}

// Sigma2Server returns the i-th (1-based) server of Σ2.
func (s *SieveResult) Sigma2Server(i int) int { return s.Sigma2[i-1] }

// Sieve runs the server-elimination analysis of Section 4.2 against a
// full-info fast-write candidate: append R2 to α_0, find which servers'
// crucial information R2's first round-trip changed (Σ1), restrict the
// chain argument to the unaffected servers Σ2, and verify that R1's return
// value still flips along the shortened chain — so the chain argument of
// Section 3 goes through on Σ2 alone.
//
// The protocol's servers must expose their append-only logs (full-info
// model); other protocols are rejected.
func (f *Family) Sieve() (*SieveResult, error) {
	// Reference execution: α_0 without R2.
	refSpec := NewSpec("α0-noR2", f.S, f.ops(false), append([]RT{rtW1, rtW2, rtR1[1]}, f.r1Unit()...))
	ref, err := refSpec.Run(f.NewServerFn())
	if err != nil {
		return nil, err
	}
	// α̂_0: α_0 with R2 appended, round-trips interleaved as in Phase 2.
	hatGlobal := append([]RT{rtW1, rtW2, rtR1[1], rtR2[1]}, f.r1Unit()...)
	hatGlobal = append(hatGlobal, f.r2Unit()...)
	hatSpec := NewSpec("α̂0", f.S, f.ops(true), hatGlobal)
	hat, err := hatSpec.Run(f.NewServerFn())
	if err != nil {
		return nil, err
	}

	v1 := ref.Result("W1").Value
	v2 := ref.Result("W2").Value
	res := &SieveResult{CrucialRef: make(map[int]string), CrucialHat: make(map[int]string)}
	for i := 1; i <= f.S; i++ {
		refLog, ok1 := ref.Servers[i-1].(logHolder)
		hatLog, ok2 := hat.Servers[i-1].(logHolder)
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("chains: sieve needs full-info servers; %T does not expose a log", ref.Servers[i-1])
		}
		cr := crucialinfo.Crucial(refLog.Log(), v1, v2)
		ch := crucialinfo.Crucial(hatLog.Log(), v1, v2)
		res.CrucialRef[i] = cr
		res.CrucialHat[i] = ch
		if cr != ch {
			res.Sigma1 = append(res.Sigma1, i)
		} else {
			res.Sigma2 = append(res.Sigma2, i)
		}
	}
	sort.Ints(res.Sigma1)
	sort.Ints(res.Sigma2)

	// Shortened chain α̂ over Σ2: α̂_i swaps the writes on the first i
	// servers of Σ2; servers in Σ1 keep their (affected) behaviour
	// unchanged in every execution.
	for i := 0; i <= len(res.Sigma2); i++ {
		spec := NewSpec(fmt.Sprintf("α̂%d", i), f.S, f.ops(true), hatGlobal)
		for j := 0; j < i; j++ {
			spec.Swap(res.Sigma2[j], rtW1, rtW2)
		}
		out, err := spec.Run(f.NewServerFn())
		if err != nil {
			return nil, err
		}
		res.AlphaHat = append(res.AlphaHat, out)
		res.Verdicts = append(res.Verdicts, Verdict{
			Phase:     "sieve",
			Execution: spec.Name,
			Result:    atomicity.Check(out.History),
			Outcome:   out,
		})
	}
	for i := 1; i < len(res.AlphaHat); i++ {
		a, b := res.AlphaHat[i-1].Result("R1"), res.AlphaHat[i].Result("R1")
		if a.Done && b.Done && a.Value != b.Value {
			res.Critical = i
			break
		}
	}
	return res, nil
}
