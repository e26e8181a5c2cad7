package chains

import "fmt"

// BetaChain is the Phase 2 result (Section 3.3).
type BetaChain struct {
	// Critical is the critical server s_i1 inherited from Phase 1.
	Critical int
	// Prime and DoublePrime are the candidate chains β′ (stemming from
	// α_{i1-1}) and β″ (stemming from α_{i1}), unmodified.
	Prime, DoublePrime []*Outcome
	// PrimeTail and DoublePrimeTail are the modified tails in which R2
	// (both round-trips) skips the critical server.
	PrimeTail, DoublePrimeTail *Outcome
	// ChosePrime reports which candidate became chain β.
	ChosePrime bool
	// Specs and Outcomes are chain β itself: the chosen candidate with R2
	// skipping s_i1 in every execution.
	Specs    []*Spec
	Outcomes []*Outcome
}

// betaSpec builds the six-round-trip execution of Phase 2: the α execution
// with `swaps` write-swapped servers, extended with R2, round-trips
// interleaved in the temporal order R1^(1), R2^(1), R1^(2), R2^(2), with
// R1^(2)/R2^(2) swapped on servers s_1…s_rswaps, and R2 optionally skipping
// the critical server.
func (f *Family) betaSpec(name string, swaps, rswaps int, skipCritical bool, critical int) *Spec {
	global := append([]RT{rtW1, rtW2, rtR1[1], rtR2[1]}, f.r1Unit()...)
	global = append(global, f.r2Unit()...)
	spec := NewSpec(name, f.S, f.ops(true), global)
	for srv := 1; srv <= swaps; srv++ {
		spec.Swap(srv, rtW1, rtW2)
	}
	for srv := 1; srv <= rswaps; srv++ {
		spec.SwapUnits(srv, f.r1Unit(), f.r2Unit())
	}
	if skipCritical {
		spec.SkipAt(critical, rtR2[1])
		spec.SkipUnit(critical, f.r2Unit())
	}
	return spec
}

// BuildBeta runs Phase 2 on top of a Phase 1 result. It requires a critical
// server (alpha.Critical > 0).
func (f *Family) BuildBeta(alpha *AlphaChain) (*BetaChain, error) {
	if alpha.Critical == 0 {
		return nil, fmt.Errorf("chains: Phase 2 needs a critical server; chain α did not flip")
	}
	i1 := alpha.Critical
	b := &BetaChain{Critical: i1}

	// Candidate chains β′ (from α_{i1-1}) and β″ (from α_{i1}).
	for i := 0; i <= f.S; i++ {
		p, err := f.betaSpec(fmt.Sprintf("β′%d", i), i1-1, i, false, i1).Run(f.NewServerFn())
		if err != nil {
			return nil, err
		}
		b.Prime = append(b.Prime, p)
		q, err := f.betaSpec(fmt.Sprintf("β″%d", i), i1, i, false, i1).Run(f.NewServerFn())
		if err != nil {
			return nil, err
		}
		b.DoublePrime = append(b.DoublePrime, q)
	}

	// Modified tails: R2 skips the critical server.
	var err error
	b.PrimeTail, err = f.betaSpec("β′S+skip", i1-1, f.S, true, i1).Run(f.NewServerFn())
	if err != nil {
		return nil, err
	}
	b.DoublePrimeTail, err = f.betaSpec("β″S+skip", i1, f.S, true, i1).Run(f.NewServerFn())
	if err != nil {
		return nil, err
	}

	// R2 skips the critical server in every β execution (its first
	// round-trip and the whole rounds-2…k unit). R2 cannot distinguish the
	// two modified tails (the only differing server is skipped), so it
	// returns the same value in both; choose the candidate whose head
	// return (R1's value, inherited from α) differs from that tail value,
	// so the two ends of chain β disagree.
	tailR2 := b.PrimeTail.Result("R2").Value
	headPrime := b.Prime[0].Result("R1").Value
	b.ChosePrime = headPrime != tailR2

	swaps := i1 // β″ stems from α_{i1}
	if b.ChosePrime {
		swaps = i1 - 1
	}
	for i := 0; i <= f.S; i++ {
		spec := f.betaSpec(fmt.Sprintf("β%d", i), swaps, i, true, i1)
		out, err := spec.Run(f.NewServerFn())
		if err != nil {
			return nil, err
		}
		b.Specs = append(b.Specs, spec)
		b.Outcomes = append(b.Outcomes, out)
	}
	return b, nil
}

// TailsIndistinguishable verifies the Phase 2 keystone: R2's view is
// identical in the two modified tails, forcing equal returns.
func (b *BetaChain) TailsIndistinguishable() bool {
	return b.PrimeTail.ReadView("R2") == b.DoublePrimeTail.ReadView("R2")
}
