package model

import (
	"fmt"
	"testing"

	"fastreg/internal/opkit"
	"fastreg/internal/quorum"
	"fastreg/internal/register"
	"fastreg/internal/types"
	"fastreg/internal/vclock"
	"fastreg/internal/w2r1"
)

// TestReplyCountsOncePerServer drives the reply step directly: neither
// scheduler delivers one reply twice, but the step must count a server
// once per round however often its reply arrives, as the live round
// engine's resends make it arrive.
func TestReplyCountsOncePerServer(t *testing.T) {
	servers := make([]register.ServerLogic, 3)
	for i := range servers {
		servers[i] = opkit.NewStoreServer(types.Server(i + 1))
	}
	c := newCore(servers, &vclock.Clock{})
	v := types.Value{Tag: types.Tag{TS: 1, WID: types.Writer(1)}, Data: "a"}
	id := c.invoke(0, opkit.NewDirectWrite(types.Writer(1), v, 2), 1)
	reply := c.request(msg{op: id, round: 1, srv: 1})
	if !c.reply(reply) {
		t.Fatal("the first reply from s1 was not counted")
	}
	if c.reply(reply) {
		t.Fatal("a second reply from s1 was counted")
	}
	if o := &c.runs[id].col; o.Ready() {
		t.Fatalf("round ready on %d replies from one server, Need %d", len(o.Replies()), o.Need())
	}
}

// TestExplorePatterns holds the explorer's deviation to its definition:
// every order of every subset of n positions appears once, sorted by
// deviation, which is the positions skipped plus the pairs out of order.
// The global orders of a write (2 rounds) and two reads are the 12
// interleavings that keep the write's rounds in order, the in-order
// baseline first.
func TestExplorePatterns(t *testing.T) {
	const n = 4
	pats := patterns(n, n*n)
	seen := map[string]bool{}
	perDev := map[int]int{}
	for i, p := range pats {
		inv := 0
		for a := range p.pos {
			for b := a + 1; b < len(p.pos); b++ {
				if p.pos[a] > p.pos[b] {
					inv++
				}
			}
		}
		if p.dev != n-len(p.pos)+inv {
			t.Errorf("%v: deviation %d, want %d skips + %d inversions", p.pos, p.dev, n-len(p.pos), inv)
		}
		if i > 0 && pats[i-1].dev > p.dev {
			t.Errorf("%v (deviation %d) after deviation %d", p.pos, p.dev, pats[i-1].dev)
		}
		seen[fmt.Sprint(p.pos)] = true
		perDev[p.dev]++
	}
	// Ordered subsets of 4 positions: 1 + 4 + 12 + 24 + 24.
	if len(pats) != 65 || len(seen) != 65 {
		t.Errorf("%d patterns, %d distinct, want 65", len(pats), len(seen))
	}
	if got := patterns(n, 1); len(got) != 1+perDev[1] || perDev[1] != 4+3 {
		t.Errorf("%d patterns through deviation 1 (%d at 1), want 1 + 4 skips + 3 adjacent swaps", len(got), perDev[1])
	}
	var globals []string
	sk := Skeleton{Protocol: w2r1.New(), Config: quorum.Config{S: 3, T: 1, R: 2, W: 2}, Clients: []types.ProcID{types.Writer(1), types.Reader(1), types.Reader(2)}}
	for _, sc := range sk.scripts(0, true) {
		globals = append(globals, fmt.Sprint(sc.Global))
	}
	if len(globals) != 12 || globals[0] != "[op0.1 op0.2 op1.1 op2.1]" {
		t.Errorf("global orders %v, want 12 from the in-order baseline", globals)
	}
}
