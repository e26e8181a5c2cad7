package chains

import (
	"fmt"

	"fastreg/internal/quorum"
	"fastreg/internal/register"
	"fastreg/internal/types"
)

// Family fixes the cast of the impossibility argument: a fast-write
// protocol candidate on S servers with t = 1, W = 2 writers and R = 2
// readers — "it suffices to show the impossibility in a system where S ≥ 3,
// W = 2, R = 2 and t = 1" (Section 3.1).
type Family struct {
	Protocol   register.Protocol
	S          int
	readRounds int
	cfg        quorum.Config
}

// Round-trip aliases for the fixed op layout of the proof:
// op 0 = W1 = write("1"), op 1 = W2 = write("2"), op 2 = R1, op 3 = R2.
//
// For W1Rk candidates with k > 2, the paper's Section 3 note applies: "We
// can combine the round-trips 2, 3, …, k as if they were one single
// round-trip." The engine realizes this by treating each read's rounds
// 2…k as one contiguous *unit*: units are swapped, skipped and delivered
// as blocks, so the k-round argument is literally the 2-round argument.
var (
	rtW1 = RT{Op: 0, Round: 1}
	rtW2 = RT{Op: 1, Round: 1}
	rtR1 = [3]RT{{}, {Op: 2, Round: 1}, {Op: 2, Round: 2}} // R1^(1), R1^(2)
	rtR2 = [3]RT{{}, {Op: 3, Round: 1}, {Op: 3, Round: 2}} // R2^(1), R2^(2)
)

// r1Unit and r2Unit are the merged rounds 2…k of the two reads.
func (f *Family) r1Unit() []RT { return readUnit(2, f.readRounds) }
func (f *Family) r2Unit() []RT { return readUnit(3, f.readRounds) }

func readUnit(op, rounds int) []RT {
	unit := make([]RT, 0, rounds-1)
	for r := 2; r <= rounds; r++ {
		unit = append(unit, RT{Op: op, Round: r})
	}
	return unit
}

// NewFamily validates the candidate and builds the proof family.
func NewFamily(p register.Protocol, s int) (*Family, error) {
	if p.WriteRounds() != 1 {
		return nil, fmt.Errorf("chains: %s has %d-round writes; the W1R2 argument needs fast writes", p.Name(), p.WriteRounds())
	}
	if p.ReadRounds() < 2 {
		return nil, fmt.Errorf("chains: %s has %d-round reads; the W1R2/W1Rk argument needs k ≥ 2", p.Name(), p.ReadRounds())
	}
	if s < 3 {
		return nil, fmt.Errorf("chains: need S ≥ 3, got %d", s)
	}
	return &Family{Protocol: p, S: s, readRounds: p.ReadRounds(),
		cfg: quorum.Config{S: s, T: 1, R: 2, W: 2}}, nil
}

// ops builds the op makers for the four cast members. Writers and readers
// are created fresh per execution (Make), so per-client state never leaks
// between executions of the chain.
func (f *Family) ops(withR2 bool) []OpMaker {
	makers := []OpMaker{
		{Name: "W1", Rounds: 1, Make: func() register.Operation {
			return f.Protocol.NewWriter(types.Writer(1), f.cfg).WriteOp("1")
		}},
		{Name: "W2", Rounds: 1, Make: func() register.Operation {
			return f.Protocol.NewWriter(types.Writer(2), f.cfg).WriteOp("2")
		}},
		{Name: "R1", Rounds: f.readRounds, Make: func() register.Operation {
			return f.Protocol.NewReader(types.Reader(1), f.cfg).ReadOp()
		}},
	}
	if withR2 {
		makers = append(makers, OpMaker{Name: "R2", Rounds: f.readRounds, Make: func() register.Operation {
			return f.Protocol.NewReader(types.Reader(2), f.cfg).ReadOp()
		}})
	}
	return makers
}

// NewServerFn returns the server factory for executions of this family.
func (f *Family) NewServerFn() func(types.ProcID) register.ServerLogic {
	return func(id types.ProcID) register.ServerLogic { return f.Protocol.NewServer(id, f.cfg) }
}

// AlphaChain is the Phase 1 result.
type AlphaChain struct {
	// Specs are α_0 … α_S (index = number of swapped servers).
	Specs []*Spec
	// Outcomes are the corresponding runs.
	Outcomes []*Outcome
	// Tail is the genuine reversed execution α_tail (temporal order W2, W1,
	// R1) that pins α_S's required return value.
	Tail *Outcome
	// Critical is the paper's i1: the first index with
	// R1(α_{i1-1}) ≠ R1(α_{i1}); 0 if R1 never flips.
	Critical int
}

// BuildAlpha constructs and runs chain α (Section 3.2): the head execution
// has three non-concurrent skip-free operations W1 ≺ W2 ≺ R1; execution α_i
// swaps the two writes' arrival order on servers s_1…s_i.
func (f *Family) BuildAlpha() (*AlphaChain, error) {
	global := append([]RT{rtW1, rtW2, rtR1[1]}, f.r1Unit()...)
	base := NewSpec("α0", f.S, f.ops(false), global)

	chain := &AlphaChain{}
	for i := 0; i <= f.S; i++ {
		spec := base.Clone(fmt.Sprintf("α%d", i))
		for srv := 1; srv <= i; srv++ {
			spec.Swap(srv, rtW1, rtW2)
		}
		out, err := spec.Run(f.NewServerFn())
		if err != nil {
			return nil, err
		}
		chain.Specs = append(chain.Specs, spec)
		chain.Outcomes = append(chain.Outcomes, out)
	}

	// α_tail: same three operations, genuinely in the order W2, W1, R1.
	tailSpec := NewSpec("α_tail", f.S, f.ops(false), append([]RT{rtW2, rtW1, rtR1[1]}, f.r1Unit()...))
	tail, err := tailSpec.Run(f.NewServerFn())
	if err != nil {
		return nil, err
	}
	chain.Tail = tail

	for i := 1; i <= f.S; i++ {
		a, b := chain.Outcomes[i-1].Result("R1"), chain.Outcomes[i].Result("R1")
		if a.Done && b.Done && a.Value != b.Value {
			chain.Critical = i
			break
		}
	}
	return chain, nil
}

// IndistinguishableTail verifies the keystone of Phase 1: R1's view in α_S
// equals its view in α_tail, so a correct protocol must return the same
// value in both. Engine sanity — it holds for any deterministic protocol.
func (c *AlphaChain) IndistinguishableTail() bool {
	return c.Outcomes[len(c.Outcomes)-1].ReadView("R1") == c.Tail.ReadView("R1")
}
