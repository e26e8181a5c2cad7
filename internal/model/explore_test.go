package model_test

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"strings"
	"testing"

	"fastreg/internal/atomicity"
	"fastreg/internal/crucialinfo"
	"fastreg/internal/model"
	"fastreg/internal/mwabd"
	"fastreg/internal/quorum"
	"fastreg/internal/register"
	"fastreg/internal/types"
	"fastreg/internal/w1r2"
	"fastreg/internal/w2r1"
)

var (
	twoWritersRead = []types.ProcID{types.Writer(1), types.Writer(2), types.Reader(1)}
	writeTwoReads  = []types.ProcID{types.Writer(1), types.Reader(1), types.Reader(2)}
)

// skeleton explores clients' operations of p at S=s, t, R=r and W=2; for
// t ≥ 2 servers share arrival orders in blocks of t.
func skeleton(p register.Protocol, s, t, r int, clients []types.ProcID) model.Skeleton {
	return model.Skeleton{Protocol: p, Config: quorum.Config{S: s, T: t, R: r, W: 2}, Clients: clients}
}

// TestExploreConvicts: given only a skeleton, the explorer finds Theorem
// 1's violation for the fast-write candidates, the new-old inversion of
// W2R2 without its write-back, and W2R1's inversion on infeasible cells
// (R ≥ S/t − 2, in blocks of t for t ≥ 2, the shapes 2t < S ≤ 3t of the
// hand-built inversion it replaces), each at deviation ≤ 4. Every
// conviction replays alone to the same history and verdict, and shrinks to
// at most four operations.
func TestExploreConvicts(t *testing.T) {
	for _, c := range []struct {
		name string
		sk   model.Skeleton
	}{
		{"W1R2 S=3", skeleton(w1r2.New(), 3, 1, 2, twoWritersRead)},
		{"FullInfo S=3", skeleton(crucialinfo.New(), 3, 1, 2, twoWritersRead)},
		{"W2R2-no-wb S=3", skeleton(mwabd.NewNoWriteBack(), 3, 1, 2, writeTwoReads)},
		{"W2R1 S=3 t=1 R=2", skeleton(w2r1.New(), 3, 1, 2, writeTwoReads)},
		{"W2R1 S=3 t=1 R=3", skeleton(w2r1.New(), 3, 1, 3, writeTwoReads)},
		{"W2R1 S=5 t=2 R=2", skeleton(w2r1.New(), 5, 2, 2, writeTwoReads)},
		{"W2R1 S=6 t=2 R=2", skeleton(w2r1.New(), 6, 2, 2, writeTwoReads)},
		{"W2R1 S=6 t=2 R=3", skeleton(w2r1.New(), 6, 2, 3, writeTwoReads)},
		{"W2R1 S=8 t=3 R=2", skeleton(w2r1.New(), 8, 3, 2, writeTwoReads)},
		{"W2R1 S=9 t=3 R=2", skeleton(w2r1.New(), 9, 3, 2, writeTwoReads)},
	} {
		name, sk := c.name, c.sk
		ex := sk.Explore(4, math.MaxInt)
		v := ex.Violation
		if v == nil {
			t.Errorf("%s: no violation through deviation 4 (%d executions)", name, ex.Executions)
			continue
		}
		_, h, err := v.Script.Run()
		if err != nil {
			t.Fatalf("%s: replay: %v", name, err)
		}
		if h.String() != v.History.String() {
			t.Errorf("%s: the replay's history\n%s differs from the explored one\n%s", name, h, v.History)
		}
		if res := atomicity.Check(h); res.String() != v.Result.String() {
			t.Errorf("%s: the replay reads %s, the exploration %s", name, res, v.Result)
		}
		core := atomicity.Shrink(v.History)
		if len(core.Ops) > 4 || atomicity.Check(core).Atomic {
			t.Errorf("%s: shrunk core of %d operations:\n%s", name, len(core.Ops), core)
		}
		t.Logf("%s: %s at execution %d, deviation %d; core:\n%s", name, v.Result.Violation.Code, ex.Executions, v.Deviation, core)
	}
}

// TestExploreClean: W2R2 at S=3 with two reads, and W2R1 at S=4 t=1 R=1
// with two writers (R < S/t − 2), are atomic on every script through
// deviation 4, one server at a time.
func TestExploreClean(t *testing.T) {
	depth := 4
	if raceEnabled {
		depth = 2
	}
	for _, c := range []struct {
		name string
		sk   model.Skeleton
	}{
		{"W2R2 S=3 {w1 r1 r2}", skeleton(mwabd.New(), 3, 1, 2, writeTwoReads)},
		{"W2R1 S=4 t=1 R=1 {w1 w2 r1}", skeleton(w2r1.New(), 4, 1, 1, twoWritersRead)},
	} {
		name, sk := c.name, c.sk
		ex := sk.Explore(depth, math.MaxInt)
		if v := ex.Violation; v != nil {
			t.Fatalf("%s: %s at deviation %d:\n%s", name, v.Result, v.Deviation, v.History)
		}
		if !ex.Clean {
			t.Fatalf("%s: %+v, want clean through deviation %d", name, ex, depth)
		}
		t.Logf("%s: clean through deviation %d, %d executions", name, depth, ex.Executions)
	}
}

// TestExploreReduction: the reduction runs each multiset of arrival orders
// over interchangeable units exactly once, and gives exactly the histories
// that running every assignment of orders to servers gives. Histories name
// no server, so executions that differ by a permutation of servers
// collide. The cases are W2R1 and W2R2 at S=3, and W2R1 at S=5 in blocks
// of 2, 2 and 1, where only the two equal blocks are interchangeable.
func TestExploreReduction(t *testing.T) {
	depth := 3
	if raceEnabled {
		depth = 2
	}
	encode := func(order []model.RT) string {
		b := make([]byte, 0, 2*len(order))
		for _, rt := range order {
			b = append(b, byte(rt.Op), byte(rt.Round))
		}
		return string(b)
	}
	// multiset names a script up to a permutation of same-size units.
	multiset := func(sk model.Skeleton, sc model.Script) string {
		size := max(sk.Config.T, 1)
		units := make([][]string, size+1) // by unit size
		for first := 1; first <= sk.Config.S; first += size {
			n := min(size, sk.Config.S-first+1)
			units[n] = append(units[n], encode(sc.Arrival[first]))
		}
		key := encode(sc.Global)
		for _, orders := range units {
			slices.Sort(orders)
			key += "|" + strings.Join(orders, ",")
		}
		return key
	}
	explore := func(sk model.Skeleton, reduce bool) (histories, multisets map[string]int, n int) {
		histories, multisets = map[string]int{}, map[string]int{}
		for _, sc := range sk.Scripts(depth, reduce) {
			multisets[multiset(sk, sc)]++
			_, h, err := sc.Run()
			if err != nil {
				t.Fatal(err)
			}
			histories[h.String()]++
			n++
		}
		return histories, multisets, n
	}
	for _, sk := range []model.Skeleton{
		skeleton(w2r1.New(), 3, 1, 2, writeTwoReads),
		skeleton(mwabd.New(), 3, 1, 2, writeTwoReads),
		skeleton(w2r1.New(), 5, 2, 2, writeTwoReads),
	} {
		name := fmt.Sprintf("%s S=%d t=%d", sk.Protocol.Name(), sk.Config.S, sk.Config.T)
		reduced, once, n := explore(sk, true)
		all, every, m := explore(sk, false)
		if len(once) != n || len(every) != n {
			t.Errorf("%s: the reduction ran %d scripts over %d multisets; the full search's %d scripts cover %d", name, n, len(once), m, len(every))
		}
		if !maps.EqualFunc(once, every, func(int, int) bool { return true }) {
			t.Errorf("%s: the reduction's multisets differ from the full search's", name)
		}
		if !maps.EqualFunc(reduced, all, func(int, int) bool { return true }) {
			t.Errorf("%s: %d distinct histories reduced, %d in full", name, len(reduced), len(all))
		}
		t.Logf("%s: %d distinct histories from %d scripts reduced, %d in full", name, len(all), n, m)
	}
}
