package protocols

import (
	"testing"

	"fastreg/internal/atomicity"
	"fastreg/internal/chains"
	"fastreg/internal/model"
	"fastreg/internal/proto"
	"fastreg/internal/register"
	"fastreg/internal/types"
)

func TestImplementableMatchesMajority(t *testing.T) {
	cases := []struct {
		s, tt int
		want  bool
	}{
		{3, 1, true}, {5, 2, true}, {4, 2, false}, {2, 1, false},
	}
	for _, c := range cases {
		if got := Must("W2R2").Implementable(cfg(c.s, c.tt, 2, 2)); got != c.want {
			t.Errorf("Implementable(S=%d,t=%d) = %v, want %v", c.s, c.tt, got, c.want)
		}
	}
	if NoWriteBack().Implementable(cfg(5, 1, 2, 2)) {
		t.Error("the no-write-back ablation must not claim atomicity")
	}
}

func TestRandomizedSchedulesStayAtomic(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		sim := model.MustNew(cfg(5, 2, 2, 2), Must("W2R2"), model.WithSeed(seed), model.WithDelay(model.UniformDelay(1, 120)))
		var spawn func(c int, write bool, n int)
		spawn = func(c int, write bool, n int) {
			if n == 0 {
				return
			}
			op := sim.Reader(c).ReadOp()
			if write {
				op = sim.Writer(c).WriteOp("x")
			}
			sim.InvokeAt(sim.Now()+1, op, func(types.Value, error) { spawn(c, write, n-1) })
		}
		for c := 1; c <= 2; c++ {
			spawn(c, true, 4)
			spawn(c, false, 4)
		}
		sim.Run()
		h := sim.History()
		if len(h.Completed()) != 16 {
			t.Fatalf("seed %d: completed %d", seed, len(h.Completed()))
		}
		if res := atomicity.Check(h); !res.Atomic {
			t.Fatalf("seed %d: %v\n%s", seed, res, h)
		}
	}
}

// The write-back is what makes W2R2 atomic: without it, a pending write
// visible on one server can be seen by one reader and missed by the next —
// a new-old inversion, built deterministically with the scripted
// interpreter.
func TestNoWriteBackExhibitsInversion(t *testing.T) {
	c := cfg(3, 1, 2, 2)
	p := NoWriteBack()
	ops := []chains.OpMaker{
		{Name: "W1", Rounds: 2, Make: func() register.Operation {
			return p.NewWriter(types.Writer(1), c).WriteOp("v")
		}},
		{Name: "R1", Rounds: 1, Make: func() register.Operation {
			return p.NewReader(types.Reader(1), c).ReadOp()
		}},
		{Name: "R2", Rounds: 1, Make: func() register.Operation {
			return p.NewReader(types.Reader(2), c).ReadOp()
		}},
	}
	global := []chains.RT{{Op: 0, Round: 1}, {Op: 0, Round: 2}, {Op: 1, Round: 1}, {Op: 2, Round: 1}}
	spec := chains.NewSpec("nowb-inversion", 3, ops, global)
	spec.SkipAt(2, chains.RT{Op: 0, Round: 2}) // the update reaches s1 only
	spec.SkipAt(3, chains.RT{Op: 0, Round: 2})
	spec.SkipAt(3, chains.RT{Op: 1, Round: 1}) // r1 hears s1, s2 → sees v
	spec.SkipAt(1, chains.RT{Op: 2, Round: 1}) // r2 hears s2, s3 → misses v
	out, err := spec.Run(func(id types.ProcID) register.ServerLogic { return p.NewServer(id, c) })
	if err != nil {
		t.Fatal(err)
	}
	if got := out.Result("R1").Value.Data; got != "v" {
		t.Fatalf("R1 = %v", out.Result("R1").Value)
	}
	if !out.Result("R2").Value.IsInitial() {
		t.Fatalf("R2 = %v", out.Result("R2").Value)
	}
	if res := atomicity.Check(out.History); res.Atomic {
		t.Fatal("no-write-back inversion judged atomic")
	}
}

// The same schedule with the write-back enabled is atomic: R1's second
// round propagates the value, so R2 cannot miss it.
func TestWriteBackPreventsInversion(t *testing.T) {
	c := cfg(3, 1, 2, 2)
	p := Must("W2R2")
	ops := []chains.OpMaker{
		{Name: "W1", Rounds: 2, Make: func() register.Operation {
			return p.NewWriter(types.Writer(1), c).WriteOp("v")
		}},
		{Name: "R1", Rounds: 2, Make: func() register.Operation {
			return p.NewReader(types.Reader(1), c).ReadOp()
		}},
		{Name: "R2", Rounds: 2, Make: func() register.Operation {
			return p.NewReader(types.Reader(2), c).ReadOp()
		}},
	}
	global := []chains.RT{{Op: 0, Round: 1}, {Op: 0, Round: 2},
		{Op: 1, Round: 1}, {Op: 1, Round: 2}, {Op: 2, Round: 1}, {Op: 2, Round: 2}}
	spec := chains.NewSpec("wb-same-schedule", 3, ops, global)
	spec.SkipAt(2, chains.RT{Op: 0, Round: 2})
	spec.SkipAt(3, chains.RT{Op: 0, Round: 2})
	spec.SkipAt(3, chains.RT{Op: 1, Round: 1})
	spec.SkipAt(3, chains.RT{Op: 1, Round: 2})
	spec.SkipAt(1, chains.RT{Op: 2, Round: 1})
	spec.SkipAt(1, chains.RT{Op: 2, Round: 2})
	out, err := spec.Run(func(id types.ProcID) register.ServerLogic { return p.NewServer(id, c) })
	if err != nil {
		t.Fatal(err)
	}
	if res := atomicity.Check(out.History); !res.Atomic {
		t.Fatalf("write-back schedule not atomic: %v\n%s", res, out.History)
	}
	// R2 now sees the value via R1's write-back on s2.
	if got := out.Result("R2").Value.Data; got != "v" {
		t.Fatalf("R2 = %v, want the written value", out.Result("R2").Value)
	}
}

func TestCrashMidExecution(t *testing.T) {
	sim := model.MustNew(cfg(5, 2, 2, 2), Must("W2R2"), model.WithSeed(7))
	sim.InvokeAt(0, sim.Writer(1).WriteOp("a"), nil)
	sim.RunUntil(100)
	sim.CrashServer(types.Server(1), sim.Now())
	sim.CrashServer(types.Server(2), sim.Now())
	var got types.Value
	sim.InvokeAt(sim.Now()+1, sim.Reader(1).ReadOp(), func(v types.Value, err error) {
		if err != nil {
			t.Errorf("read: %v", err)
		}
		got = v
	})
	sim.Run()
	if got.Data != "a" {
		t.Fatalf("read %v after 2 crashes with t=2", got)
	}
	if res := atomicity.Check(sim.History()); !res.Atomic {
		t.Fatalf("%v", res)
	}
}

// TestAbandonedWriteTagNotReused: w1's write "A" queries s1 and s2 and its
// Update reaches only s1 before the write is abandoned (a timeout). Its
// next write "B" queries s2 and s3, neither of which holds A, so their
// tags alone would give B A's tag (1,w1): two values, one tag. The writer
// remembers the timestamp it used, and B's tag is above it.
func TestAbandonedWriteTagNotReused(t *testing.T) {
	c := cfg(3, 1, 1, 1)
	p := Must("W2R2")
	var servers []register.ServerLogic
	for i := 1; i <= c.S; i++ {
		servers = append(servers, p.NewServer(types.Server(i), c))
	}
	w1 := types.Writer(1)
	ask := func(m proto.Message, from ...register.ServerLogic) []register.Reply {
		var out []register.Reply
		for _, s := range from {
			out = append(out, register.Reply{From: s.ID(), Msg: s.Handle(w1, m)})
		}
		return out
	}
	writer := p.NewWriter(w1, c)

	a := writer.WriteOp("A")
	up, _, _, err := a.Next(ask(a.Begin().Payload, servers[0], servers[1]))
	if err != nil || up == nil {
		t.Fatalf("A's query round: next %v, err %v", up, err)
	}
	ask(up.Payload, servers[0]) // A's Update reaches s1 only; A is abandoned
	tagA := servers[0].CurrentValue().Tag

	b := writer.WriteOp("B")
	up, _, _, err = b.Next(ask(b.Begin().Payload, servers[1], servers[2]))
	if err != nil || up == nil {
		t.Fatalf("B's query round: next %v, err %v", up, err)
	}
	_, vb, done, err := b.Next(ask(up.Payload, servers...))
	if err != nil || !done {
		t.Fatalf("B's update round: done %v, err %v", done, err)
	}
	if !tagA.Less(vb.Tag) {
		t.Fatalf("B was written as %v after A took %v: a writer reused (or went below) its own tag", vb, tagA)
	}
	if got := servers[0].CurrentValue(); got != vb {
		t.Fatalf("s1 holds %v after B, want B %v", got, vb)
	}
}
