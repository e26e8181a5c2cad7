package chains

import (
	"fmt"
	"strings"

	"fastreg/internal/atomicity"
	"fastreg/internal/register"
)

// Verdict is the atomicity checker's verdict on one execution of the proof
// family.
type Verdict struct {
	Phase     string // "alpha", "beta", "zigzag"
	Execution string // e.g. "α3", "β′S+skip", "γ2"
	Result    atomicity.Result
	Outcome   *Outcome
}

// Report is the full output of the executable impossibility argument.
type Report struct {
	Protocol   string
	S          int
	ReadRounds int // the candidate's k: the argument is W1Rk's

	Alpha  *AlphaChain
	Beta   *BetaChain
	Zigzag *ZigzagChain

	// Verdicts covers every execution run, in proof order.
	Verdicts []Verdict
	// Violations are the non-atomic ones — Theorem 1 guarantees at least
	// one for any fast-write candidate.
	Violations []Verdict
	// LinksHold records whether every constructed indistinguishability held
	// (an engine invariant for in-model protocols).
	LinksHold bool
}

// First returns the first violation found, or nil.
func (r *Report) First() *Verdict {
	if len(r.Violations) == 0 {
		return nil
	}
	return &r.Violations[0]
}

// String summarizes the report.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "W1R%d impossibility argument: protocol=%s S=%d t=1 W=2 R=2\n", r.ReadRounds, r.Protocol, r.S)
	if r.Alpha != nil {
		critical := "no critical server (R1's return never flips)"
		if r.Alpha.Critical != 0 {
			critical = fmt.Sprintf("critical server s%d", r.Alpha.Critical)
		}
		fmt.Fprintf(&b, "  phase 1: chain α of %d executions, %s\n", len(r.Alpha.Outcomes), critical)
	}
	if r.Beta != nil {
		chosen := "β″"
		if r.Beta.ChosePrime {
			chosen = "β′"
		}
		fmt.Fprintf(&b, "  phase 2: chains β′/β″ built, chose %s; tails indistinguishable to R2: %v\n", chosen, r.Beta.TailsIndistinguishable())
	}
	if r.Zigzag != nil {
		fmt.Fprintf(&b, "  phase 3: %d zigzag links, all indistinguishabilities hold: %v\n", len(r.Zigzag.Links), r.LinksHold)
	}
	fmt.Fprintf(&b, "  executions checked: %d, atomicity violations: %d\n", len(r.Verdicts), len(r.Violations))
	if v := r.First(); v != nil {
		fmt.Fprintf(&b, "  first violation: %s/%s — %s\n", v.Phase, v.Execution, v.Result)
	}
	return b.String()
}

// FindViolation runs the complete three-phase argument of Sections 3.2–3.4
// against a fast-write candidate on S servers (t = 1, W = 2, R = 2) and
// checks every constructed execution for atomicity. For any protocol in the
// model, at least one execution must violate (Theorem 1); the report names
// it and carries the full history as the exhibit.
func FindViolation(p register.Protocol, s int) (*Report, error) {
	f, err := NewFamily(p, s)
	if err != nil {
		return nil, err
	}
	rep := &Report{Protocol: p.Name(), S: s, ReadRounds: p.ReadRounds(), LinksHold: true}

	judge := func(phase, name string, out *Outcome) {
		res := atomicity.Check(out.History)
		v := Verdict{Phase: phase, Execution: name, Result: res, Outcome: out}
		rep.Verdicts = append(rep.Verdicts, v)
		if !res.Atomic {
			rep.Violations = append(rep.Violations, v)
		}
	}

	// Phase 1.
	alpha, err := f.BuildAlpha()
	if err != nil {
		return nil, err
	}
	rep.Alpha = alpha
	for i, out := range alpha.Outcomes {
		judge("alpha", fmt.Sprintf("α%d", i), out)
	}
	judge("alpha", "α_tail", alpha.Tail)

	if alpha.Critical == 0 {
		// No flip along the chain: then α_0 and α_S return the same value,
		// yet α_0 forces "2" and α_S (≡ α_tail) forces "1" — one of the
		// ends must already have been flagged above.
		return rep, nil
	}

	// Phase 2.
	beta, err := f.BuildBeta(alpha)
	if err != nil {
		return nil, err
	}
	rep.Beta = beta
	for i := range beta.Prime {
		judge("beta", fmt.Sprintf("β′%d", i), beta.Prime[i])
		judge("beta", fmt.Sprintf("β″%d", i), beta.DoublePrime[i])
	}
	judge("beta", "β′S+skip", beta.PrimeTail)
	judge("beta", "β″S+skip", beta.DoublePrimeTail)
	for i, out := range beta.Outcomes {
		judge("beta", fmt.Sprintf("β%d", i), out)
	}

	// Phase 3.
	zig, err := f.BuildZigzag(beta)
	if err != nil {
		return nil, err
	}
	rep.Zigzag = zig
	rep.LinksHold = zig.AllLinksHold()
	for _, l := range zig.Links {
		if l.Temp != nil {
			judge("zigzag", fmt.Sprintf("temp%d", l.K), l.Temp)
		}
		judge("zigzag", fmt.Sprintf("γ%d", l.K), l.Gamma)
		if l.TempPrime != nil {
			judge("zigzag", fmt.Sprintf("temp′%d", l.K), l.TempPrime)
		}
		judge("zigzag", fmt.Sprintf("γ′%d", l.K), l.GammaPrime)
	}
	return rep, nil
}
