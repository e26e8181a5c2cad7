// Package chains makes the paper's impossibility proof executable. It
// provides a scripted-execution interpreter — executions are specified by a
// global temporal order of round-trips plus a per-server arrival order with
// skips, exactly the vocabulary of Section 3 — and the three proof phases:
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
	"sort"

	"fastreg/internal/history"
	"fastreg/internal/proto"
	"fastreg/internal/register"
	"fastreg/internal/types"
	"fastreg/internal/vclock"
)

// RT identifies one round-trip: round Round (1-based) of operation Op
// (index into the spec's op list).
type RT struct {
	Op    int
	Round int
}

// String renders "R1.2"-style names given the spec's op names.
func (rt RT) String() string { return fmt.Sprintf("op%d.%d", rt.Op, rt.Round) }

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
	ia, ib := indexOf(order, a), indexOf(order, b)
	if ia < 0 || ib < 0 {
		panic(fmt.Sprintf("chains: Swap(%d, %v, %v): round-trip not delivered there", server, a, b))
	}
	order[ia], order[ib] = order[ib], order[ia]
}

// SkipAt removes a round-trip from a server's arrival order — the paper's
// "the round-trip skips server s".
func (s *Spec) SkipAt(server int, rt RT) {
	order := s.Arrival[server]
	i := indexOf(order, rt)
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
	i := indexOf(order, anchor)
	if i < 0 {
		panic(fmt.Sprintf("chains: DeliverAfter(%d, %v, %v): anchor skipped", server, rt, anchor))
	}
	order = append(order, RT{})
	copy(order[i+2:], order[i+1:])
	order[i+1] = rt
	s.Arrival[server] = order
}

// Skips reports whether rt is skipped at server.
func (s *Spec) Skips(server int, rt RT) bool { return indexOf(s.Arrival[server], rt) < 0 }

// SwapUnits exchanges two contiguous, adjacent blocks of round-trips in a
// server's arrival order. It realizes the Section 3 note for W1Rk: the
// merged rounds 2…k of each read move as one block.
func (s *Spec) SwapUnits(server int, a, b []RT) {
	if len(a) == 1 && len(b) == 1 {
		s.Swap(server, a[0], b[0])
		return
	}
	order := s.Arrival[server]
	ia := indexOf(order, a[0])
	ib := indexOf(order, b[0])
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

func indexOf(order []RT, rt RT) int {
	for i, x := range order {
		if x == rt {
			return i
		}
	}
	return -1
}

// OpResult is one operation's fate in an outcome.
type OpResult struct {
	Name    string
	Value   types.Value
	Err     error
	Done    bool
	Replies map[int][]proto.Message // round → replies in server-index order
	From    map[int][]int           // round → server indices the replies came from
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
	rounds := make([]int, 0, len(r.Replies))
	for round := range r.Replies {
		rounds = append(rounds, round)
	}
	sort.Ints(rounds)
	out := ""
	for _, round := range rounds {
		out += fmt.Sprintf("round%d[", round)
		for i, m := range r.Replies[round] {
			out += fmt.Sprintf("s%d:%s;", r.From[round][i], m)
		}
		out += "]"
	}
	return out
}

// opState tracks one in-flight operation during interpretation.
type opState struct {
	op          register.Operation
	maker       OpMaker
	need        int
	payloads    map[int]proto.Message // round → broadcast payload, once known
	curRound    int                   // round currently open (0 = not begun)
	roundDone   map[int]bool
	replies     map[int][]register.Reply
	replySrv    map[int][]int
	done        bool
	stalled     bool // a round could not reach its quorum; later rounds never start
	result      types.Value
	err         error
	invokePos   int
	completePos int
}

// Run interprets the spec against fresh servers from newServer. It returns
// an error only for malformed specs (round quorums unreachable, rounds out
// of order); protocol-level results, including operation errors, land in
// the Outcome.
func (s *Spec) Run(newServer func(id types.ProcID) register.ServerLogic) (*Outcome, error) {
	servers := make([]register.ServerLogic, s.NumServers+1) // 1-based
	for i := 1; i <= s.NumServers; i++ {
		servers[i] = newServer(types.Server(i))
	}
	ops := make([]*opState, len(s.Ops))
	for i, m := range s.Ops {
		ops[i] = &opState{
			op: m.Make(), maker: m,
			payloads:  make(map[int]proto.Message),
			roundDone: make(map[int]bool),
			replies:   make(map[int][]register.Reply),
			replySrv:  make(map[int][]int),
			invokePos: -1,
		}
	}
	cursor := make([]int, s.NumServers+1)
	ready := make(map[RT]bool, len(s.Global))

	clock := &vclock.Clock{}
	rec := history.NewRecorder(clock)
	refs := make([]history.Ref, len(ops))

	applyAll := func() {
		for srv := 1; srv <= s.NumServers; srv++ {
			order := s.Arrival[srv]
			for cursor[srv] < len(order) {
				rt := order[cursor[srv]]
				st := ops[rt.Op]
				if st.stalled && rt.Round > st.curRound {
					// The operation stalled before sending this round: the
					// message does not exist, so it cannot occupy a queue
					// slot — skip it and keep draining.
					cursor[srv]++
					continue
				}
				payload := st.payloads[rt.Round]
				if !ready[rt] || payload == nil {
					// Not initiated yet: the server waits; everything queued
					// behind this arrival waits too (FIFO per channel).
					break
				}
				reply := servers[srv].Handle(st.op.Client(), payload)
				if reply != nil {
					st.replies[rt.Round] = append(st.replies[rt.Round], register.Reply{From: types.Server(srv), Msg: reply})
					st.replySrv[rt.Round] = append(st.replySrv[rt.Round], srv)
				}
				cursor[srv]++
			}
		}
	}

	for pos, rt := range s.Global {
		if rt.Op < 0 || rt.Op >= len(ops) {
			return nil, fmt.Errorf("chains: %s: global[%d] references op %d of %d", s.Name, pos, rt.Op, len(ops))
		}
		st := ops[rt.Op]
		if st.done || st.err != nil {
			return nil, fmt.Errorf("chains: %s: %s initiates round %d after completion", s.Name, st.maker.Name, rt.Round)
		}
		if st.stalled {
			continue
		}
		switch {
		case rt.Round == 1:
			if st.curRound != 0 {
				return nil, fmt.Errorf("chains: %s: %s round 1 initiated twice", s.Name, st.maker.Name)
			}
			round := st.op.Begin()
			st.payloads[1], st.need, st.curRound = round.Payload, round.Need, 1
			st.invokePos = pos
			refs[rt.Op] = rec.InvokeAt(vclock.Time(pos*1000+rt.Op+1), st.op.Client(), uint64(rt.Op+1), st.op.Kind(), st.op.Arg())
		case rt.Round == st.curRound+1:
			if !st.roundDone[st.curRound] {
				// The previous round never reached its quorum (too many
				// skips): the client is still waiting, so this and every
				// later round of the operation simply never start. The
				// operation stays pending in the history.
				st.stalled = true
				continue
			}
			st.curRound = rt.Round
		default:
			return nil, fmt.Errorf("chains: %s: %s initiates round %d out of order", s.Name, st.maker.Name, rt.Round)
		}
		ready[rt] = true
		applyAll()
		// Completion pass: any open round with a quorum of applied replies
		// completes now (the earliest moment the client can respond).
		for idx, o := range ops {
			if o.done || o.err != nil || o.curRound == 0 || o.roundDone[o.curRound] {
				continue
			}
			got := o.replies[o.curRound]
			if len(got) < o.need {
				continue
			}
			o.roundDone[o.curRound] = true
			sortByServer(got, o.replySrv[o.curRound])
			next, res, done, err := o.op.Next(got)
			switch {
			case err != nil:
				o.err = err
				o.completePos = pos
				rec.RespondAt(vclock.Time(pos*1000+500+idx+1), refs[idx], types.Value{}, err)
			case done:
				o.done = true
				o.result = res
				o.completePos = pos
				rec.RespondAt(vclock.Time(pos*1000+500+idx+1), refs[idx], res, nil)
			default:
				o.payloads[o.curRound+1], o.need = next.Payload, next.Need
				// The next round opens when its global position arrives.
			}
		}
	}

	// Pending two-round writes learned their tag in round 1; refresh the
	// recorded argument so reads of in-flight values stay matchable.
	for idx, o := range ops {
		if !o.done && o.err == nil && o.invokePos >= 0 {
			rec.UpdateValue(refs[idx], o.op.Arg())
		}
	}
	out := &Outcome{Spec: s, Servers: servers[1:], History: rec.History()}
	for _, o := range ops {
		r := OpResult{Name: o.maker.Name, Value: o.result, Err: o.err, Done: o.done,
			Replies: make(map[int][]proto.Message), From: o.replySrv}
		for round, reps := range o.replies {
			ms := make([]proto.Message, len(reps))
			for i, rep := range reps {
				ms[i] = rep.Msg
			}
			r.Replies[round] = ms
		}
		out.Results = append(out.Results, r)
	}
	return out, nil
}

// sortByServer orders replies (and the parallel server-index slice) by
// server index, making client inputs deterministic regardless of drain
// order.
func sortByServer(reps []register.Reply, srv []int) {
	sort.Sort(&replySorter{reps, srv})
}

type replySorter struct {
	reps []register.Reply
	srv  []int
}

func (r *replySorter) Len() int           { return len(r.reps) }
func (r *replySorter) Less(i, j int) bool { return r.srv[i] < r.srv[j] }
func (r *replySorter) Swap(i, j int) {
	r.reps[i], r.reps[j] = r.reps[j], r.reps[i]
	r.srv[i], r.srv[j] = r.srv[j], r.srv[i]
}
