package opkit

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"fastreg/internal/proto"
	"fastreg/internal/register"
	"fastreg/internal/types"
)

// The map-based admissibility search and valuevector server this package
// had before its data became sorted, frozen slices, kept as reference
// oracles. They are the old code line for line, except where the old code
// left a result to chance on input only a faulty process sends:
//
//   - candidates with equal tags were tried in whatever order sort.Slice
//     left them; the oracle breaks the tie by payload (Value.Compare), the
//     order the vectors are now sorted in;
//   - a client listed twice in one updated set counted twice towards its
//     coverage, which only the greedy variant's choice of clients could
//     see; the oracle counts it once per message.

func oracleSets(v types.Value, msgs []proto.FastReadAck) ([]map[types.ProcID]bool, map[types.ProcID]int) {
	var sets []map[types.ProcID]bool
	counts := make(map[types.ProcID]int)
	for _, m := range msgs {
		ent, ok := m.Entry(v)
		if !ok {
			continue
		}
		set := make(map[types.ProcID]bool, len(ent.Updated))
		for _, p := range ent.Updated {
			if !set[p] {
				counts[p]++
			}
			set[p] = true
		}
		sets = append(sets, set)
	}
	return sets, counts
}

func oracleCovering(sets []map[types.ProcID]bool, chosen []types.ProcID) int {
	n := 0
	for _, set := range sets {
		ok := true
		for _, c := range chosen {
			if !set[c] {
				ok = false
				break
			}
		}
		if ok {
			n++
		}
	}
	return n
}

func oracleAdmissible(v types.Value, msgs []proto.FastReadAck, a int, cfg AdmissibleConfig) bool {
	need := cfg.S - a*cfg.T
	if need < 1 {
		need = 1
	}
	sets, counts := oracleSets(v, msgs)
	if len(sets) < need {
		return false
	}
	var cands []types.ProcID
	for p, n := range counts {
		if n >= need {
			cands = append(cands, p)
		}
	}
	if len(cands) < a {
		return false
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].Less(cands[j]) })
	chosen := make([]types.ProcID, 0, a)
	var dfs func(start int) bool
	dfs = func(start int) bool {
		if len(chosen) == a {
			return oracleCovering(sets, chosen) >= need
		}
		for i := start; i <= len(cands)-(a-len(chosen)); i++ {
			chosen = append(chosen, cands[i])
			if dfs(i + 1) {
				return true
			}
			chosen = chosen[:len(chosen)-1]
		}
		return false
	}
	return dfs(0)
}

func oracleAdmissibleGreedy(v types.Value, msgs []proto.FastReadAck, a int, cfg AdmissibleConfig) bool {
	need := cfg.S - a*cfg.T
	if need < 1 {
		need = 1
	}
	sets, counts := oracleSets(v, msgs)
	if len(sets) < need {
		return false
	}
	cands := make([]types.ProcID, 0, len(counts))
	for p, n := range counts {
		if n >= need {
			cands = append(cands, p)
		}
	}
	if len(cands) < a {
		return false
	}
	sort.Slice(cands, func(i, j int) bool {
		if counts[cands[i]] != counts[cands[j]] {
			return counts[cands[i]] > counts[cands[j]]
		}
		return cands[i].Less(cands[j])
	})
	return oracleCovering(sets, cands[:a]) >= need
}

func oracleSelectAdmissible(msgs []proto.FastReadAck, cfg AdmissibleConfig) (types.Value, error) {
	seen := make(map[types.Value]bool)
	var cands []types.Value
	for _, m := range msgs {
		for _, v := range m.Values() {
			if !seen[v] {
				seen[v] = true
				cands = append(cands, v)
			}
		}
	}
	sort.Slice(cands, func(i, j int) bool { return cands[j].Compare(cands[i]) < 0 })
	test := oracleAdmissible
	if cfg.Greedy {
		test = oracleAdmissibleGreedy
	}
	for _, v := range cands {
		for a := 1; a <= cfg.MaxDegree; a++ {
			if test(v, msgs, a, cfg) {
				return v, nil
			}
		}
	}
	return types.Value{}, fmt.Errorf("%w: no admissible value among %d candidates", register.ErrProtocol, len(cands))
}

// oracleServer is the old VectorServer: a map from value to a set of
// clients, deep-copied and sorted into every reply. It has the new one's
// dead-value floor, kept its own way: a map from reader index to the
// largest tag that reader sent, and a sweep of the map on every request.
type oracleServer struct {
	cur    types.Value
	vector map[types.Value]map[types.ProcID]bool

	readers int
	seen    map[int]types.Tag
	off     bool
	floor   types.Tag
}

func newOracleServer(readers int) *oracleServer {
	s := &oracleServer{
		cur:     types.InitialValue(),
		vector:  make(map[types.Value]map[types.ProcID]bool),
		readers: readers,
		seen:    make(map[int]types.Tag),
		off:     readers == 0,
	}
	s.vector[types.InitialValue()] = make(map[types.ProcID]bool)
	return s
}

func (s *oracleServer) dead(v types.Value) bool { return v.Tag.Less(s.floor) }

// sweep drops every entry tagged below the floor.
func (s *oracleServer) sweep() {
	for v := range s.vector {
		if s.dead(v) {
			delete(s.vector, v)
		}
	}
}

// see raises the floor for a FastRead from c whose largest value is top,
// or freezes it for good when c is not one of the readers.
func (s *oracleServer) see(c types.ProcID, top types.Tag) {
	if s.off {
		return
	}
	if c.Role != types.RoleReader || c.Index < 1 || c.Index > s.readers {
		s.off = true
		return
	}
	if s.seen[c.Index].Less(top) {
		s.seen[c.Index] = top
	}
	s.floor = s.seen[1]
	for i := 2; i <= s.readers; i++ {
		if s.seen[i].Less(s.floor) {
			s.floor = s.seen[i]
		}
	}
}

func (s *oracleServer) update(val types.Value, c types.ProcID) {
	if s.vector[val] == nil {
		s.vector[val] = make(map[types.ProcID]bool)
	}
	s.vector[val][c] = true
	if s.cur.Less(val) {
		s.cur = val
	}
}

func (s *oracleServer) Handle(from types.ProcID, m proto.Message) proto.Message {
	switch msg := m.(type) {
	case proto.Query:
		cur := s.cur
		return proto.QueryAck{Val: &cur}
	case proto.Update:
		s.sweep()
		if !s.dead(*msg.Val) {
			s.update(*msg.Val, from)
		}
		return proto.UpdateAck{}
	case *proto.FastRead:
		var top types.Value
		for _, v := range msg.ValQueue {
			top = types.MaxValue(top, v)
		}
		s.see(from, top.Tag)
		s.sweep()
		for _, v := range msg.ValQueue {
			if !s.dead(v) || v == top {
				s.update(v, from)
			}
		}
		for _, set := range s.vector {
			set[from] = true
		}
		return proto.FastReadAck{Vector: s.snapshot(), Floor: s.floor}
	default:
		return nil
	}
}

func (s *oracleServer) snapshot() []proto.VectorEntry {
	out := make([]proto.VectorEntry, 0, len(s.vector))
	for v, set := range s.vector {
		ids := make([]types.ProcID, 0, len(set))
		for p := range set {
			ids = append(ids, p)
		}
		out = append(out, proto.VectorEntry{Val: v, Updated: proto.NormalizeUpdated(ids)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Val.Compare(out[j].Val) < 0 })
	return out
}

// hostileAcks draws a reply set the way a fleet with faulty replicas could
// send it: a handful of tags, sometimes two payloads under one tag, vectors
// that may be unsorted and may repeat a value, updated sets that may be
// unsorted and may repeat a client.
func hostileAcks(r *rand.Rand) []proto.FastReadAck {
	clients := []types.ProcID{types.Writer(1), types.Writer(2), types.Reader(1), types.Reader(2), types.Reader(3)}
	var pool []types.Value
	for ts := int64(0); ts < int64(1+r.Intn(4)); ts++ {
		v := types.Value{Tag: types.Tag{TS: ts, WID: types.Writer(1 + r.Intn(2))}, Data: "p"}
		pool = append(pool, v)
		if r.Intn(4) == 0 {
			v.Data = "q"
			pool = append(pool, v)
		}
	}
	msgs := make([]proto.FastReadAck, 1+r.Intn(6))
	for i := range msgs {
		var vec []proto.VectorEntry
		for _, v := range pool {
			for reps := r.Intn(8) / 7; reps >= 0 && r.Intn(5) > 0; reps-- {
				var ups []types.ProcID
				for _, c := range clients {
					for n := r.Intn(10); n > 4; n -= 4 {
						ups = append(ups, c)
					}
				}
				if r.Intn(3) == 0 {
					r.Shuffle(len(ups), func(a, b int) { ups[a], ups[b] = ups[b], ups[a] })
				}
				vec = append(vec, proto.VectorEntry{Val: v, Updated: ups})
			}
		}
		if r.Intn(3) == 0 {
			r.Shuffle(len(vec), func(a, b int) { vec[a], vec[b] = vec[b], vec[a] })
		}
		msgs[i].Vector = vec
	}
	return msgs
}

// TestAdmissibilityMatchesMapOracle holds the slice-based search to the
// map-based one it replaced, on hostile reply sets as well as well-formed
// ones, for both predicates at every degree and for the selection loop in
// both modes.
func TestAdmissibilityMatchesMapOracle(t *testing.T) {
	r := rand.New(rand.NewSource(20))
	for trial := 0; trial < 12000; trial++ {
		msgs := hostileAcks(r)
		cfg := AdmissibleConfig{S: 3 + r.Intn(5), T: 1 + r.Intn(2), MaxDegree: 1 + r.Intn(4)}
		for _, m := range msgs {
			for _, e := range m.Vector {
				for a := 1; a <= cfg.MaxDegree; a++ {
					if got, want := Admissible(e.Val, msgs, a, cfg), oracleAdmissible(e.Val, msgs, a, cfg); got != want {
						t.Fatalf("trial %d: Admissible(%v, a=%d, %+v) = %v, oracle %v\nmsgs %v", trial, e.Val, a, cfg, got, want, msgs)
					}
					if got, want := AdmissibleGreedy(e.Val, msgs, a, cfg), oracleAdmissibleGreedy(e.Val, msgs, a, cfg); got != want {
						t.Fatalf("trial %d: AdmissibleGreedy(%v, a=%d, %+v) = %v, oracle %v\nmsgs %v", trial, e.Val, a, cfg, got, want, msgs)
					}
				}
			}
		}
		for _, greedy := range []bool{false, true} {
			cfg.Greedy = greedy
			got, gotErr := SelectAdmissible(msgs, cfg)
			want, wantErr := oracleSelectAdmissible(msgs, cfg)
			if got != want || (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("trial %d: SelectAdmissible(%+v) = %v, %v; oracle %v, %v\nmsgs %v", trial, cfg, got, gotErr, want, wantErr, msgs)
			}
			if gotErr != nil && (!errors.Is(gotErr, register.ErrProtocol) || gotErr.Error() != wantErr.Error()) {
				t.Fatalf("trial %d: error %q, oracle %q", trial, gotErr, wantErr)
			}
		}
	}
}

// TestVectorServerMatchesMapOracle drives the slice-based server and the
// map-based one it replaced with the same requests — valQueues that repeat
// values, come unsorted, carry two payloads under one tag among them and
// fall below the floor — and compares every reply, floor included, and
// vali. After every Update and FastRead, the reply the replica has boxed
// for its next unchanged FastRead must be the oracle's vector and floor
// too. Half the trials send FastReads from the two readers alone, so the
// floor rises; the other half also from the writers and a third reader,
// which freezes it.
func TestVectorServerMatchesMapOracle(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	pruned := 0
	for trial := 0; trial < 300; trial++ {
		clients := []types.ProcID{types.Reader(1), types.Reader(2), types.Writer(1), types.Writer(2), types.Reader(3)}
		readers := 2
		if trial%2 == 0 {
			clients = clients[:2]
		}
		s, o := NewVectorServer(types.Server(1), readers), newOracleServer(readers)
		randVal := func() types.Value {
			v := types.Value{Tag: types.Tag{TS: int64(r.Intn(6)), WID: types.Writer(1 + r.Intn(2))}, Data: "p"}
			if r.Intn(6) == 0 {
				v.Data = "q"
			}
			return v
		}
		for step := 0; step < 40; step++ {
			from := clients[r.Intn(len(clients))]
			var m proto.Message
			switch r.Intn(4) {
			case 0:
				m = proto.Query{}
			case 1:
				v := randVal()
				from = types.Writer(1 + r.Intn(2))
				m = proto.Update{Val: &v}
			default:
				q := make([]types.Value, r.Intn(4))
				for i := range q {
					q[i] = randVal()
				}
				m = &proto.FastRead{ValQueue: q}
			}
			got, want := s.Handle(from, m), o.Handle(from, m)
			if !sameReply(got, want) {
				t.Fatalf("trial %d step %d: %v from %v\n got %v\nwant %v", trial, step, m, from, got, want)
			}
			if s.CurrentValue() != o.cur {
				t.Fatalf("trial %d step %d: vali %v, oracle %v", trial, step, s.CurrentValue(), o.cur)
			}
			if _, query := m.(proto.Query); !query {
				want := proto.FastReadAck{Vector: o.snapshot(), Floor: o.floor}
				if got := s.published(); !sameReply(got, want) {
					t.Fatalf("trial %d step %d: after %v from %v the boxed reply is\n %v\nwant %v", trial, step, m, from, got, want)
				}
			}
		}
		if !o.floor.Less(types.Tag{TS: 1}) {
			pruned++
		}
	}
	if pruned < 50 {
		t.Errorf("the floor rose in %d of 300 trials, want at least 50", pruned)
	}
}

func sameReply(a, b proto.Message) bool {
	if x, ok := a.(proto.QueryAck); ok {
		y, ok := b.(proto.QueryAck)
		return ok && *x.Val == *y.Val
	}
	x, ok := a.(proto.FastReadAck)
	if !ok {
		return a == b
	}
	y, ok := b.(proto.FastReadAck)
	if !ok || x.Floor != y.Floor || len(x.Vector) != len(y.Vector) {
		return false
	}
	for i := range x.Vector {
		if x.Vector[i].String() != y.Vector[i].String() {
			return false
		}
	}
	return true
}
