package protocols

import (
	"testing"

	"fastreg/internal/atomicity"
	"fastreg/internal/chains"
	"fastreg/internal/model"
	"fastreg/internal/quorum"
	"fastreg/internal/types"
)

func TestImplementableOnlyDegenerate(t *testing.T) {
	cases := []struct {
		cfg  quorum.Config
		want bool
	}{
		{quorum.Config{S: 3, T: 1, R: 2, W: 1}, true},  // single writer: ABD
		{quorum.Config{S: 3, T: 0, R: 2, W: 2}, false}, // counters clash even without crashes
		{quorum.Config{S: 3, T: 1, R: 2, W: 2}, false}, // Theorem 1
		{quorum.Config{S: 5, T: 2, R: 3, W: 3}, false},
	}
	for _, c := range cases {
		if got := Must("W1R2").Implementable(c.cfg); got != c.want {
			t.Errorf("Implementable(%v) = %v, want %v", c.cfg, got, c.want)
		}
	}
}

// TestSequentialCrossWriterViolation is the simplest exhibit of why fast
// writes fail: w2 writes first, then w1 (strictly after), but w1's private
// counter tags its value lower, so a subsequent read returns w2's value —
// the naive protocol loses a completed write.
func TestSequentialCrossWriterViolation(t *testing.T) {
	cfg := quorum.Config{S: 3, T: 1, R: 2, W: 2}
	sim := model.MustNew(cfg, Must("W1R2"), model.WithSeed(1))
	sim.InvokeAt(0, sim.Writer(2).WriteOp("from-w2"), func(types.Value, error) {
		sim.InvokeAt(sim.Now()+1, sim.Writer(1).WriteOp("from-w1"), func(types.Value, error) {
			sim.InvokeAt(sim.Now()+1, sim.Reader(1).ReadOp(), nil)
		})
	})
	sim.Run()
	h := sim.History()
	if len(h.Completed()) != 3 {
		t.Fatalf("completed %d", len(h.Completed()))
	}
	reads := h.Reads()
	if reads[0].Value.Data != "from-w2" {
		t.Fatalf("read %v — expected the naive protocol to lose w1's write", reads[0].Value)
	}
	res := atomicity.Check(h)
	if res.Atomic {
		t.Fatal("lost-write history judged atomic")
	}
}

// TestChainEngineDefeatsNaive: the executable Theorem 1 argument finds the
// violation without hand-crafting a schedule.
func TestChainEngineDefeatsNaive(t *testing.T) {
	for _, s := range []int{3, 5, 7} {
		rep, err := chains.FindViolation(Must("W1R2"), s)
		if err != nil {
			t.Fatal(err)
		}
		if len(rep.Violations) == 0 {
			t.Fatalf("S=%d: no violation found", s)
		}
	}
}

// TestSingleWriterDegenerateIsAtomic: with W=1 the protocol is ABD and the
// randomized adversary finds nothing.
func TestSingleWriterDegenerateIsAtomic(t *testing.T) {
	cfg := quorum.Config{S: 5, T: 1, R: 2, W: 1}
	for seed := int64(1); seed <= 10; seed++ {
		sim := model.MustNew(cfg, Must("W1R2"), model.WithSeed(seed), model.WithDelay(model.UniformDelay(1, 80)))
		var spawn func(c int, write bool, n int)
		spawn = func(c int, write bool, n int) {
			if n == 0 {
				return
			}
			op := sim.Reader(c).ReadOp()
			if write {
				op = sim.Writer(1).WriteOp("d")
			}
			sim.InvokeAt(sim.Now()+1, op, func(types.Value, error) { spawn(c, write, n-1) })
		}
		spawn(1, true, 5)
		spawn(1, false, 5)
		spawn(2, false, 5)
		sim.Run()
		if res := atomicity.Check(sim.History()); !res.Atomic {
			t.Fatalf("seed %d: single-writer degenerate case violated: %v", seed, res)
		}
	}
}

func TestWriteIsOneRoundLatency(t *testing.T) {
	const d = 50
	cfg := quorum.Config{S: 3, T: 1, R: 2, W: 2}
	sim := model.MustNew(cfg, Must("W1R2"), model.WithDelay(model.ConstDelay(d)))
	sim.InvokeAt(0, sim.Writer(1).WriteOp("x"), nil)
	sim.Run()
	ops := sim.History().Completed()
	if len(ops) != 1 {
		t.Fatal("write did not complete")
	}
	lat := ops[0].Response - ops[0].Invoke
	if lat < 2*d || lat > 2*d+4 {
		t.Fatalf("fast write latency = %d, want ≈ %d", lat, 2*d)
	}
}
