package protocols

import (
	"testing"

	"fastreg/internal/atomicity"
	"fastreg/internal/model"
	"fastreg/internal/quorum"
	"fastreg/internal/types"
)

func TestImplementableBound(t *testing.T) {
	cases := []struct {
		cfg  quorum.Config
		want bool
	}{
		{quorum.Config{S: 5, T: 1, R: 2, W: 1}, true},  // 2 < 3, single writer
		{quorum.Config{S: 5, T: 1, R: 3, W: 1}, false}, // R ≥ S/t-2
		{quorum.Config{S: 5, T: 1, R: 2, W: 2}, false}, // multi-writer: [12]
		{quorum.Config{S: 4, T: 2, R: 1, W: 1}, false}, // no majority... R*t+2t=6 ≥ 4
	}
	for _, c := range cases {
		if got := Must("W1R1").Implementable(c.cfg); got != c.want {
			t.Errorf("Implementable(%v) = %v, want %v", c.cfg, got, c.want)
		}
	}
}

// TestBothOperationsOneRound: the whole point of W1R1 — every operation is
// a single round trip.
func TestBothOperationsOneRound(t *testing.T) {
	const d = 50
	cfg := quorum.Config{S: 5, T: 1, R: 2, W: 1}
	sim := model.MustNew(cfg, Must("W1R1"), model.WithDelay(model.ConstDelay(d)))
	sim.InvokeAt(0, sim.Writer(1).WriteOp("x"), func(types.Value, error) {
		sim.InvokeAt(sim.Now()+1, sim.Reader(1).ReadOp(), nil)
	})
	sim.Run()
	for _, o := range sim.History().Completed() {
		lat := o.Response.Sub(o.Invoke)
		if lat < 2*d || lat > 2*d+4 {
			t.Errorf("%s latency = %d, want ≈ %d (one round)", o.Kind, lat, 2*d)
		}
	}
}

// TestSingleWriterFeasibleAtomic: the Dutta et al. configuration
// (W=1, R < S/t − 2) stays atomic under randomized adversaries.
func TestSingleWriterFeasibleAtomic(t *testing.T) {
	cfg := quorum.Config{S: 6, T: 1, R: 2, W: 1}
	for seed := int64(1); seed <= 20; seed++ {
		delay := model.DelayFn(model.UniformDelay(1, 120))
		delay = model.Skip(delay, types.Reader(1), types.Server(int(seed)%6+1))
		sim := model.MustNew(cfg, Must("W1R1"), model.WithSeed(seed), model.WithDelay(delay))
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
		h := sim.History()
		if len(h.Completed()) != 15 {
			t.Fatalf("seed %d: completed %d", seed, len(h.Completed()))
		}
		if res := atomicity.Check(h); !res.Atomic {
			t.Fatalf("seed %d: %v\n%s", seed, res, h)
		}
	}
}

// TestMultiWriterViolation: with two writers the fast protocol loses
// sequential cross-writer writes, exactly like naive W1R2 — Table 1 row 4.
func TestMultiWriterViolation(t *testing.T) {
	cfg := quorum.Config{S: 5, T: 1, R: 2, W: 2}
	sim := model.MustNew(cfg, Must("W1R1"), model.WithSeed(1))
	sim.InvokeAt(0, sim.Writer(2).WriteOp("w2-first"), func(types.Value, error) {
		sim.InvokeAt(sim.Now()+1, sim.Writer(1).WriteOp("w1-second"), func(types.Value, error) {
			sim.InvokeAt(sim.Now()+1, sim.Reader(1).ReadOp(), nil)
		})
	})
	sim.Run()
	res := atomicity.Check(sim.History())
	if res.Atomic {
		t.Fatal("multi-writer W1R1 judged atomic on sequential cross-writer writes")
	}
}
