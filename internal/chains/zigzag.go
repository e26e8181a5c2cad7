package chains

import "fmt"

// Link is one rung of the zigzag chain Z (Section 3.4): the horizontal link
// β_k ≈ temp_k ≈ γ_k and the diagonal link β_{k+1} ≈ temp′_k ≈ γ′_k, with
// γ_k ≈ γ′_k tying them together.
type Link struct {
	K int
	// Simple marks the k+1 = i1 special case, where the temp executions are
	// unnecessary (Sections 3.4.1/3.4.2, final paragraphs).
	Simple bool

	Temp, Gamma           *Outcome // horizontal: nil Temp when Simple
	TempPrime, GammaPrime *Outcome // diagonal: nil TempPrime when Simple

	// View-equality verdicts — the indistinguishability sources of Figs 4–7.
	HorizontalR1, HorizontalR2 bool // R1: β_k vs temp_k; R2: temp_k vs γ_k
	DiagonalR2, DiagonalR1     bool // R2: β_{k+1} vs temp′_k; R1: temp′_k vs γ′_k
	GammasAgree                bool // γ_k vs γ′_k, both readers
}

// ZigzagChain is the Phase 3 result.
type ZigzagChain struct {
	Critical int
	Links    []Link
}

// BuildZigzag constructs and runs the horizontal and diagonal links for
// every k ∈ [0, S-1], on top of a Phase 2 result.
func (f *Family) BuildZigzag(beta *BetaChain) (*ZigzagChain, error) {
	i1 := beta.Critical
	swaps := i1 // chain β inherited β″'s write swaps
	if beta.ChosePrime {
		swaps = i1 - 1
	}
	z := &ZigzagChain{Critical: i1}

	r1u, r2u := f.r1Unit(), f.r2Unit()
	lastR1 := r1u[len(r1u)-1]
	for k := 0; k <= f.S-1; k++ {
		link := Link{K: k, Simple: k+1 == i1}
		betaK := beta.Outcomes[k]
		betaK1 := beta.Outcomes[k+1]

		if link.Simple {
			// k+1 = i1: s_{k+1} already misses R2^(2); just let R1^(2) skip
			// it too.
			gSpec := f.betaSpec(fmt.Sprintf("γ%d", k), swaps, k, true, i1)
			gSpec.SkipUnit(k+1, r1u)
			g, err := gSpec.Run(f.NewServerFn())
			if err != nil {
				return nil, err
			}
			link.Gamma = g
			// R2 skips s_{k+1} in both β_k and γ_k, so it cannot see the
			// change to R1^(2).
			link.HorizontalR1 = true // no temp step in this case
			link.HorizontalR2 = betaK.ReadView("R2") == g.ReadView("R2")

			gpSpec := f.betaSpec(fmt.Sprintf("γ′%d", k), swaps, k+1, true, i1)
			gpSpec.SkipUnit(k+1, r1u)
			gp, err := gpSpec.Run(f.NewServerFn())
			if err != nil {
				return nil, err
			}
			link.GammaPrime = gp
			link.DiagonalR1 = true
			link.DiagonalR2 = betaK1.ReadView("R2") == gp.ReadView("R2")
			link.GammasAgree = g.ReadView("R1") == gp.ReadView("R1") &&
				g.ReadView("R2") == gp.ReadView("R2")
			z.Links = append(z.Links, link)
			continue
		}

		// Horizontal link: temp_k = β_k except R2^(2) skips s_{k+1} and is
		// delivered on s_i1 right after R1^(2) (Fig 5).
		tSpec := f.betaSpec(fmt.Sprintf("temp%d", k), swaps, k, true, i1)
		tSpec.SkipUnit(k+1, r2u)
		tSpec.DeliverUnitAfter(i1, r2u, lastR1)
		tOut, err := tSpec.Run(f.NewServerFn())
		if err != nil {
			return nil, err
		}
		link.Temp = tOut
		link.HorizontalR1 = betaK.ReadView("R1") == tOut.ReadView("R1")

		// γ_k = temp_k except R1^(2) skips s_{k+1}.
		gSpec := tSpec.Clone(fmt.Sprintf("γ%d", k))
		gSpec.SkipUnit(k+1, r1u)
		g, err := gSpec.Run(f.NewServerFn())
		if err != nil {
			return nil, err
		}
		link.Gamma = g
		link.HorizontalR2 = tOut.ReadView("R2") == g.ReadView("R2")

		// Diagonal link: temp′_k = β_{k+1} except R1^(2) skips s_{k+1}
		// (Fig 7). R2^(2) finishes first on s_{k+1} there, so R2 cannot
		// tell.
		tpSpec := f.betaSpec(fmt.Sprintf("temp′%d", k), swaps, k+1, true, i1)
		tpSpec.SkipUnit(k+1, r1u)
		tpOut, err := tpSpec.Run(f.NewServerFn())
		if err != nil {
			return nil, err
		}
		link.TempPrime = tpOut
		link.DiagonalR2 = betaK1.ReadView("R2") == tpOut.ReadView("R2")

		// γ′_k = temp′_k except R2^(2) skips s_{k+1} and is delivered on
		// s_i1 after R1^(2).
		gpSpec := tpSpec.Clone(fmt.Sprintf("γ′%d", k))
		gpSpec.SkipUnit(k+1, r2u)
		gpSpec.DeliverUnitAfter(i1, r2u, lastR1)
		gp, err := gpSpec.Run(f.NewServerFn())
		if err != nil {
			return nil, err
		}
		link.GammaPrime = gp
		link.DiagonalR1 = tpOut.ReadView("R1") == gp.ReadView("R1")

		link.GammasAgree = g.ReadView("R1") == gp.ReadView("R1") &&
			g.ReadView("R2") == gp.ReadView("R2")
		z.Links = append(z.Links, link)
	}
	return z, nil
}

// AllLinksHold reports whether every indistinguishability the proof
// constructs actually held in the runs — true for any protocol that only
// reacts to the messages it receives (i.e., anything in the model).
func (z *ZigzagChain) AllLinksHold() bool {
	for _, l := range z.Links {
		if !l.HorizontalR1 || !l.HorizontalR2 || !l.DiagonalR2 || !l.DiagonalR1 || !l.GammasAgree {
			return false
		}
	}
	return true
}
