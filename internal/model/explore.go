package model

import (
	"iter"
	"slices"
	"strconv"

	"fastreg/internal/atomicity"
	"fastreg/internal/history"
	"fastreg/internal/quorum"
	"fastreg/internal/register"
	"fastreg/internal/types"
)

// Skeleton is the explorer's input: one operation per client of Clients, a
// write (writer i writes "i") or a read of Protocol on Config's servers,
// which share arrival orders in blocks of Config.T (the last may be short).
type Skeleton struct {
	Protocol register.Protocol
	Config   quorum.Config
	Clients  []types.ProcID
}

// Exploration is what Skeleton.Explore found.
type Exploration struct {
	Executions int
	Clean      bool // every script through maxDeviation ran, one server at a time (T ≤ 1), all atomic
	Violation  *Violation
}

// Violation is the first non-atomic execution. Its Script is on fresh
// servers and operations, ready to replay.
type Violation struct {
	Script    Script
	Deviation int
	History   history.History
	Result    atomicity.Result
}

// Explore runs the skeleton's scripts through Script.Run and
// atomicity.Check in order of deviation from the in-order baseline until one
// violates atomicity, or every script through maxDeviation, or
// maxExecutions of them, ran. A script orders the round trips globally
// (each operation's rounds in order) and gives each block an arrival order
// over a subset of them. Its deviation counts, per block, the round trips
// skipped and the pairs received out of global order (chains.Spec's SkipAt
// and Swap): a skip that t servers share adds 1, not t. Blocks of one size
// are symmetric, so each multiset of their arrival orders runs once.
func (sk Skeleton) Explore(maxDeviation, maxExecutions int) Exploration {
	var ex Exploration
	for dev, sc := range sk.scripts(maxDeviation, true) {
		if ex.Executions == maxExecutions {
			return ex
		}
		ex.Executions++
		_, h, err := sc.Run()
		if err != nil {
			panic("model: explored a malformed script: " + err.Error())
		}
		if res := atomicity.Check(h); !res.Atomic {
			ex.Violation = &Violation{sk.script(sc.Global, sc.Arrival), dev, h, res}
			return ex
		}
	}
	ex.Clean = sk.Config.T <= 1
	return ex
}

// script builds the skeleton's servers and operations, fresh, on the given
// orders.
func (sk Skeleton) script(global []RT, arrival map[int][]RT) Script {
	sc := Script{Global: global, Arrival: arrival}
	for i := 1; i <= sk.Config.S; i++ {
		sc.Servers = append(sc.Servers, sk.Protocol.NewServer(types.Server(i), sk.Config))
	}
	for _, c := range sk.Clients {
		if c.Role == types.RoleWriter {
			sc.Ops = append(sc.Ops, sk.Protocol.NewWriter(c, sk.Config).WriteOp(strconv.Itoa(c.Index)))
		} else {
			sc.Ops = append(sc.Ops, sk.Protocol.NewReader(c, sk.Config).ReadOp())
		}
	}
	return sc
}

// scripts yields the scripts through deviation maxDev with their
// deviations: level by level, within a level each global order, and for
// each one every multiset of arrival patterns over units (servers or
// blocks). With reduce, units of one size take patterns in non-decreasing
// order; without it, every assignment runs.
func (sk Skeleton) scripts(maxDev int, reduce bool) iter.Seq2[int, Script] {
	rounds := make([]int, len(sk.Clients))
	for i, c := range sk.Clients {
		if rounds[i] = sk.Protocol.ReadRounds(); c.Role == types.RoleWriter {
			rounds[i] = sk.Protocol.WriteRounds()
		}
	}
	globals := interleavings(rounds)
	pats := patterns(len(globals[0]), maxDev)
	var units []int // each unit's size
	for left, size := sk.Config.S, max(sk.Config.T, 1); left > 0; left -= size {
		units = append(units, min(size, left))
	}
	return func(yield func(int, Script) bool) {
		pick := make([]int, len(units)) // each unit's pattern
		var fill func(dev, u, left int, g []RT) bool
		fill = func(dev, u, left int, g []RT) bool {
			if u == len(units) {
				if left > 0 {
					return true
				}
				arrival := make(map[int][]RT, sk.Config.S)
				for u, size := range units {
					for order := on(pats[pick[u]].pos, g); size > 0; size-- {
						arrival[len(arrival)+1] = order
					}
				}
				return yield(dev, sk.script(g, arrival))
			}
			lo := 0
			if reduce && u > 0 && units[u] == units[u-1] {
				lo = pick[u-1]
			}
			for i := lo; i < len(pats) && pats[i].dev <= left; i++ {
				if pick[u] = i; !fill(dev, u+1, left-pats[i].dev, g) {
					return false
				}
			}
			return true
		}
		for dev := range maxDev + 1 {
			for _, g := range globals {
				if !fill(dev, 0, dev, g) {
					return
				}
			}
		}
	}
}

// interleavings lists the global orders of the operations' round trips,
// every merge that keeps each operation's rounds in order, the in-order
// baseline first.
func interleavings(rounds []int) [][]RT {
	var out [][]RT
	sent := make([]int, len(rounds))
	var rec func(cur []RT)
	rec = func(cur []RT) {
		if slices.Equal(sent, rounds) {
			out = append(out, slices.Clone(cur))
		}
		for op := range rounds {
			if sent[op] < rounds[op] {
				sent[op]++
				rec(append(cur, RT{Op: op, Round: sent[op]}))
				sent[op]--
			}
		}
	}
	rec(nil)
	return out
}

// on lists the round trips at positions pos of order.
func on(pos []int, order []RT) []RT {
	out := make([]RT, len(pos))
	for i, p := range pos {
		out[i] = order[p]
	}
	return out
}

// pattern is one arrival order as positions in the global order, and its
// deviation: the positions it skips plus its inversions.
type pattern struct {
	pos []int
	dev int
}

// patterns lists the arrival patterns over n round trips through deviation
// maxDev, by deviation: every order of every subset of the positions.
func patterns(n, maxDev int) []pattern {
	var out []pattern
	var rec func(order []int, inv int)
	rec = func(order []int, inv int) {
		if dev := inv + n - len(order); dev <= maxDev {
			out = append(out, pattern{slices.Clone(order), dev})
		}
		for p := range n {
			more := 0 // the inversions p adds: placed positions after it
			for _, q := range order {
				if q > p {
					more++
				}
			}
			if !slices.Contains(order, p) && inv+more <= maxDev {
				rec(append(order, p), inv+more)
			}
		}
	}
	rec(nil, 0)
	slices.SortStableFunc(out, func(a, b pattern) int { return a.dev - b.dev })
	return out
}
