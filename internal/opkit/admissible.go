package opkit

import (
	"cmp"
	"fmt"
	"slices"

	"fastreg/internal/proto"
	"fastreg/internal/register"
	"fastreg/internal/types"
)

// AdmissibleConfig carries the cluster parameters the admissibility test
// needs: S, t, and the maximum degree R+1.
type AdmissibleConfig struct {
	S         int
	T         int
	MaxDegree int // R + 1
	// Greedy selects the approximate witness search (ablation only).
	Greedy bool
}

// need is the size S − a·t of the witness set µ for degree a. A
// non-positive quorum would make the predicate vacuous; the algorithm never
// tests such degrees under its feasibility condition, and treating them as
// satisfied would be unsound, so it is clamped to one message.
func (cfg AdmissibleConfig) need(a int) int {
	return max(cfg.S-a*cfg.T, 1)
}

// candidate is a client that enough updated sets contain to belong to a
// witness, with the number of sets that contain it.
type candidate struct {
	id    types.ProcID
	cover int
}

// The search below works on small slices that start out in arrays on the
// stack of the function that declares them (an append past the array's end
// moves that one slice to the heap, nothing else changes), so a search over
// a handful of replies allocates nothing. The sizes cover S ≤ 8 replies and
// a dozen clients.

// ascendingSet returns set itself when it is strictly ascending, as an
// honest replica sends it, and a normalized private copy when it is not.
func ascendingSet(set []types.ProcID) []types.ProcID {
	for i := 1; i < len(set); i++ {
		if set[i-1].Compare(set[i]) >= 0 {
			return proto.NormalizeUpdated(slices.Clone(set))
		}
	}
	return set
}

// ascendingVector is ascendingSet for a reply's vector, ordered by
// Value.Compare. Of several entries for one value a faulty replica's copy
// keeps the first, the one FastReadAck.Entry finds.
func ascendingVector(vec []proto.VectorEntry) []proto.VectorEntry {
	for i := 1; i < len(vec); i++ {
		if vec[i-1].Val.Compare(vec[i].Val) >= 0 {
			vec = slices.Clone(vec)
			slices.SortStableFunc(vec, func(a, b proto.VectorEntry) int { return a.Val.Compare(b.Val) })
			return slices.CompactFunc(vec, func(a, b proto.VectorEntry) bool { return a.Val == b.Val })
		}
	}
	return vec
}

// gather appends to sets the updated sets of the messages that carry v,
// each ascending.
func gather(sets [][]types.ProcID, v types.Value, msgs []proto.FastReadAck) [][]types.ProcID {
	for _, m := range msgs {
		if ent, ok := m.Entry(v); ok {
			sets = append(sets, ascendingSet(ent.Updated))
		}
	}
	return sets
}

// candidates appends to cands, in ascending order, the clients that appear
// in at least need of the sets. A set holds a client at most once, so a
// client's coverage is the length of its run in the sorted concatenation of
// the sets.
func candidates(cands []candidate, sets [][]types.ProcID, need int) []candidate {
	var buf [32]types.ProcID
	all := buf[:0]
	for _, set := range sets {
		all = append(all, set...)
	}
	slices.SortFunc(all, types.ProcID.Compare)
	for i := 0; i < len(all); {
		j := i + 1
		for j < len(all) && all[j] == all[i] {
			j++
		}
		if j-i >= need {
			cands = append(cands, candidate{id: all[i], cover: j - i})
		}
		i = j
	}
	return cands
}

// covering counts the sets that contain every chosen client.
func covering(sets [][]types.ProcID, chosen []types.ProcID) int {
	n := 0
	for _, set := range sets {
		all := true
		for _, c := range chosen {
			all = all && slices.Contains(set, c)
		}
		if all {
			n++
		}
	}
	return n
}

// admissible evaluates the predicate of Algorithm 1, line 32, on the
// ascending updated sets of the messages that carry the value under test.
//
// The exact check uses the observation that a witness µ exists iff there is
// a set C of a clients with C ⊆ m.updated(v) for at least S − a·t of the
// messages containing v: given µ, any a members of its common intersection
// form C; given C, the messages containing v whose updated set includes C
// form µ. Client universes are small (≤ W + R + 1), so enumerating
// a-subsets of the candidate clients is cheap and exact. The greedy check
// keeps the a candidates with the highest coverage and tries only that one
// set; BenchmarkAblationAdmissible sets the two against each other.
func admissible(sets [][]types.ProcID, a int, cfg AdmissibleConfig, greedy bool) bool {
	need := cfg.need(a)
	if len(sets) < need {
		return false
	}
	var (
		candsBuf  [16]candidate
		chosenBuf [8]types.ProcID
	)
	cands := candidates(candsBuf[:0], sets, need)
	if len(cands) < a {
		return false
	}
	if !greedy {
		return extend(chosenBuf[:0], cands, sets, a, need)
	}
	slices.SortFunc(cands, func(x, y candidate) int {
		if c := cmp.Compare(y.cover, x.cover); c != 0 {
			return c
		}
		return x.id.Compare(y.id)
	})
	chosen := chosenBuf[:0]
	for _, c := range cands[:a] {
		chosen = append(chosen, c.id)
	}
	return covering(sets, chosen) >= need
}

// extend completes chosen to a clients from cands in every way and reports
// whether at least need sets contain one of the completions.
func extend(chosen []types.ProcID, cands []candidate, sets [][]types.ProcID, a, need int) bool {
	if len(chosen) == a {
		return covering(sets, chosen) >= need
	}
	for i := 0; i <= len(cands)-(a-len(chosen)); i++ {
		if extend(append(chosen, cands[i].id), cands[i+1:], sets, a, need) {
			return true
		}
	}
	return false
}

// Admissible evaluates the predicate of Algorithm 1, line 32:
//
//	admissible(v, Msg, a) ≡ ∃µ ⊆ Msg ∀m ∈ µ:
//	    (m has v) ∧ (|µ| ≥ S − a·t) ∧ (|∩_{m'∈µ} m'.updated| ≥ a)
//
// The check is exact.
func Admissible(v types.Value, msgs []proto.FastReadAck, a int, cfg AdmissibleConfig) bool {
	var buf [8][]types.ProcID
	return admissible(gather(buf[:0], v, msgs), a, cfg, false)
}

// AdmissibleGreedy is the approximate variant used by the ablation
// benchmark: instead of enumerating client subsets it keeps the a clients
// with the highest message coverage and checks only that single candidate
// set. It can report false negatives; it must never report a false positive
// (the candidate it checks is a genuine witness).
func AdmissibleGreedy(v types.Value, msgs []proto.FastReadAck, a int, cfg AdmissibleConfig) bool {
	var buf [8][]types.ProcID
	return admissible(gather(buf[:0], v, msgs), a, cfg, true)
}

// SelectAdmissible runs the selection loop of Algorithm 1, lines 23–31:
// take the maximal value present in the replies; if it is admissible with
// some degree a ∈ [1, MaxDegree], return it; otherwise remove it from every
// message and retry with the next maximal value. Values are taken in
// descending Value.Compare order.
//
// Termination is Lemma 3: the maximal value of the valQueue the reader just
// disseminated is admissible with degree 1, because every replying server
// recorded the reader on it before replying.
//
// The walk goes down the replies' vectors from their largest entries. A
// vector arrives ascending, so the next value to try is the largest last
// entry, and its updated sets are the last entries equal to it: slices into
// the replies, nothing copied.
func SelectAdmissible(msgs []proto.FastReadAck, cfg AdmissibleConfig) (types.Value, error) {
	var (
		vecsBuf [8][]proto.VectorEntry // per reply: its vector, less the entries already tried
		setsBuf [8][]types.ProcID
	)
	vecs := vecsBuf[:0]
	for _, m := range msgs {
		vecs = append(vecs, ascendingVector(m.Vector))
	}
	tried := 0
	for {
		var v types.Value
		found := false
		for _, vec := range vecs {
			if n := len(vec); n > 0 && (!found || vec[n-1].Val.Compare(v) > 0) {
				v, found = vec[n-1].Val, true
			}
		}
		if !found {
			return types.Value{}, fmt.Errorf("%w: no admissible value among %d candidates", register.ErrProtocol, tried)
		}
		tried++
		sets := setsBuf[:0]
		for i, vec := range vecs {
			if n := len(vec); n > 0 && vec[n-1].Val == v {
				sets = append(sets, ascendingSet(vec[n-1].Updated))
				vecs[i] = vec[:n-1]
			}
		}
		for a := 1; a <= cfg.MaxDegree; a++ {
			if admissible(sets, a, cfg, cfg.Greedy) {
				return v, nil
			}
		}
	}
}
