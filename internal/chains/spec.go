// Package chains makes the paper's impossibility proof executable. A Spec
// scripts one execution in the vocabulary of Section 3 — a global temporal
// order of round trips plus a per-server arrival order with skips — and
// runs it on model.Script, the scripted scheduler over the model's step
// relation. On top sit the three proof phases:
//
//   - Phase 1 (alpha.go): chain α, swapping the two writes one server at a
//     time to locate the critical server s_i1 (Fig 3, Section 3.2);
//   - Phase 2 (beta.go): chains β′/β″/β, appending the second read with
//     interleaved round-trips and skipping the critical server
//     (Section 3.3);
//   - Phase 3 (zigzag.go): the horizontal and diagonal links temp_k/γ_k and
//     temp′_k/γ′_k forming the zigzag chain Z (Figs 4–7, Section 3.4);
//   - the sieve of Section 4.2 (sieve.go), eliminating servers whose
//     crucial info a read's first round-trip affected (Fig 8).
//
// Running every execution of the family through the atomicity checker
// exhibits, for any concrete fast-write candidate, the violating execution
// Theorem 1 guarantees must exist.
package chains

import (
	"fmt"
	"maps"
	"slices"

	"fastreg/internal/history"
	"fastreg/internal/model"
	"fastreg/internal/register"
	"fastreg/internal/types"
)

// RT identifies one round-trip: round Round (1-based) of operation Op
// (index into the spec's op list).
type RT = model.RT

// OpMaker describes one operation of an execution. Make must return a fresh
// Operation (and fresh client state) every call, so a Spec can be run many
// times independently.
type OpMaker struct {
	Name   string // display name: "W1", "R2", …
	Rounds int
	Make   func() register.Operation
}

// Spec is a scripted execution: which operations run, the global temporal
// order of their round-trips (round-trips are non-concurrent, as throughout
// the proof), and each server's arrival order. A round-trip absent from a
// server's arrival list is skipped at that server (delayed past the end of
// the execution).
type Spec struct {
	Name       string
	NumServers int
	Ops        []OpMaker
	Global     []RT
	Arrival    map[int][]RT // server index (1-based) → arrival order
}

// NewSpec builds a spec whose servers all receive every round-trip in
// global order — the "skip-free, everyone in temporal order" baseline the
// chain constructions then perturb.
func NewSpec(name string, numServers int, ops []OpMaker, global []RT) *Spec {
	s := &Spec{Name: name, NumServers: numServers, Ops: ops, Global: global,
		Arrival: make(map[int][]RT, numServers)}
	for i := 1; i <= numServers; i++ {
		s.Arrival[i] = append([]RT(nil), global...)
	}
	return s
}

// Clone deep-copies the spec (same op makers).
func (s *Spec) Clone(name string) *Spec {
	c := &Spec{Name: name, NumServers: s.NumServers, Ops: s.Ops,
		Global:  append([]RT(nil), s.Global...),
		Arrival: make(map[int][]RT, len(s.Arrival))}
	for srv, order := range s.Arrival {
		c.Arrival[srv] = append([]RT(nil), order...)
	}
	return c
}

// Swap exchanges the arrival positions of two round-trips at one server.
// It panics if either is skipped there — swapping a skipped round-trip is a
// construction bug.
func (s *Spec) Swap(server int, a, b RT) {
	order := s.Arrival[server]
	ia, ib := slices.Index(order, a), slices.Index(order, b)
	if ia < 0 || ib < 0 {
		panic(fmt.Sprintf("chains: Swap(%d, %v, %v): round-trip not delivered there", server, a, b))
	}
	order[ia], order[ib] = order[ib], order[ia]
}

// SkipAt removes a round-trip from a server's arrival order — the paper's
// "the round-trip skips server s".
func (s *Spec) SkipAt(server int, rt RT) {
	order := s.Arrival[server]
	i := slices.Index(order, rt)
	if i < 0 {
		return // already skipped
	}
	s.Arrival[server] = append(order[:i], order[i+1:]...)
}

// DeliverAfter inserts rt into a server's arrival order immediately after
// anchor (un-skipping it). Used by the link constructions that "add R2^(2)
// back on s_i1, after R1^(2)".
func (s *Spec) DeliverAfter(server int, rt, anchor RT) {
	s.SkipAt(server, rt)
	order := s.Arrival[server]
	i := slices.Index(order, anchor)
	if i < 0 {
		panic(fmt.Sprintf("chains: DeliverAfter(%d, %v, %v): anchor skipped", server, rt, anchor))
	}
	order = append(order, RT{})
	copy(order[i+2:], order[i+1:])
	order[i+1] = rt
	s.Arrival[server] = order
}

// Skips reports whether rt is skipped at server.
func (s *Spec) Skips(server int, rt RT) bool { return slices.Index(s.Arrival[server], rt) < 0 }

// SwapUnits exchanges two contiguous, adjacent blocks of round-trips in a
// server's arrival order. It realizes the Section 3 note for W1Rk: the
// merged rounds 2…k of each read move as one block.
func (s *Spec) SwapUnits(server int, a, b []RT) {
	if len(a) == 1 && len(b) == 1 {
		s.Swap(server, a[0], b[0])
		return
	}
	order := s.Arrival[server]
	ia := slices.Index(order, a[0])
	ib := slices.Index(order, b[0])
	if ia < 0 || ib < 0 {
		panic(fmt.Sprintf("chains: SwapUnits(%d): unit not delivered there", server))
	}
	if ib < ia {
		a, b = b, a
		ia, ib = ib, ia
	}
	if ia+len(a) != ib {
		panic(fmt.Sprintf("chains: SwapUnits(%d): units not adjacent (%d+%d != %d)", server, ia, len(a), ib))
	}
	for i, rt := range a {
		if order[ia+i] != rt {
			panic(fmt.Sprintf("chains: SwapUnits(%d): unit A not contiguous", server))
		}
	}
	for i, rt := range b {
		if order[ib+i] != rt {
			panic(fmt.Sprintf("chains: SwapUnits(%d): unit B not contiguous", server))
		}
	}
	merged := make([]RT, 0, len(a)+len(b))
	merged = append(merged, b...)
	merged = append(merged, a...)
	copy(order[ia:], merged)
}

// SkipUnit removes every round-trip of the unit from a server's arrival
// order.
func (s *Spec) SkipUnit(server int, unit []RT) {
	for _, rt := range unit {
		s.SkipAt(server, rt)
	}
}

// DeliverUnitAfter reinserts the unit, in order, immediately after anchor.
func (s *Spec) DeliverUnitAfter(server int, unit []RT, anchor RT) {
	prev := anchor
	for _, rt := range unit {
		s.DeliverAfter(server, rt, prev)
		prev = rt
	}
}

// OpResult is one operation's fate in an outcome.
type OpResult struct {
	Name string
	model.Result
}

// Outcome is the result of running a Spec.
type Outcome struct {
	Spec    *Spec
	Results []OpResult
	History history.History
	Servers []register.ServerLogic
}

// Result returns the named operation's result.
func (o *Outcome) Result(name string) OpResult {
	for _, r := range o.Results {
		if r.Name == name {
			return r
		}
	}
	return OpResult{Name: name}
}

// ReadView is the multiset of (server, reply) pairs an operation's round
// received, in server order — the information-theoretic "view" the
// indistinguishability arguments compare.
func (o *Outcome) ReadView(name string) string {
	r := o.Result(name)
	out := ""
	for _, round := range slices.Sorted(maps.Keys(r.Replies)) {
		out += fmt.Sprintf("round%d[", round)
		for i, m := range r.Replies[round] {
			out += fmt.Sprintf("s%d:%s;", r.From[round][i], m)
		}
		out += "]"
	}
	return out
}

// Run executes the spec on fresh servers from newServer and fresh
// operations from the op makers. It returns an error only for malformed
// specs (rounds out of order or after completion); protocol-level results,
// including operation errors, land in the Outcome.
func (s *Spec) Run(newServer func(id types.ProcID) register.ServerLogic) (*Outcome, error) {
	sc := model.Script{Global: s.Global, Arrival: s.Arrival}
	for i := 1; i <= s.NumServers; i++ {
		sc.Servers = append(sc.Servers, newServer(types.Server(i)))
	}
	for _, m := range s.Ops {
		sc.Ops = append(sc.Ops, m.Make())
	}
	results, h, err := sc.Run()
	if err != nil {
		return nil, fmt.Errorf("chains: running %s: %w", s.Name, err)
	}
	out := &Outcome{Spec: s, Servers: sc.Servers, History: h}
	for i, r := range results {
		out.Results = append(out.Results, OpResult{Name: s.Ops[i].Name, Result: r})
	}
	return out, nil
}
