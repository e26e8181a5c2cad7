package protocols

import (
	"testing"

	"fastreg/internal/atomicity"
	"fastreg/internal/model"
	"fastreg/internal/quorum"
	"fastreg/internal/types"
)

func TestImplementableSingleWriterMajority(t *testing.T) {
	cases := []struct {
		cfg  quorum.Config
		want bool
	}{
		{quorum.Config{S: 3, T: 1, R: 5, W: 1}, true},
		{quorum.Config{S: 3, T: 1, R: 2, W: 2}, false}, // multi-writer
		{quorum.Config{S: 2, T: 1, R: 2, W: 1}, false}, // no majority
	}
	for _, c := range cases {
		if got := Must("ABD").Implementable(c.cfg); got != c.want {
			t.Errorf("Implementable(%v) = %v, want %v", c.cfg, got, c.want)
		}
	}
}

func TestWriterTimestampsIncrease(t *testing.T) {
	cfg := quorum.Config{S: 3, T: 1, R: 2, W: 1}
	sim := model.MustNew(cfg, Must("ABD"), model.WithSeed(1))
	var tags []types.Tag
	var chainWrites func(n int)
	chainWrites = func(n int) {
		if n == 0 {
			return
		}
		sim.InvokeAt(sim.Now()+1, sim.Writer(1).WriteOp("x"), func(v types.Value, err error) {
			if err != nil {
				t.Errorf("write: %v", err)
				return
			}
			tags = append(tags, v.Tag)
			chainWrites(n - 1)
		})
	}
	chainWrites(5)
	sim.Run()
	if len(tags) != 5 {
		t.Fatalf("writes completed: %d", len(tags))
	}
	for i := 1; i < len(tags); i++ {
		if tags[i].TS != tags[i-1].TS+1 {
			t.Errorf("timestamps not consecutive: %v then %v", tags[i-1], tags[i])
		}
	}
}

func TestSingleWriterHistoriesAtomic(t *testing.T) {
	cfg := quorum.Config{S: 5, T: 2, R: 3, W: 1}
	for seed := int64(1); seed <= 20; seed++ {
		sim := model.MustNew(cfg, Must("ABD"), model.WithSeed(seed), model.WithDelay(model.UniformDelay(1, 100)))
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
		for c := 1; c <= 3; c++ {
			spawn(c, false, 4)
		}
		sim.Run()
		h := sim.History()
		if len(h.Completed()) != 17 {
			t.Fatalf("seed %d: completed %d", seed, len(h.Completed()))
		}
		if res := atomicity.Check(h); !res.Atomic {
			t.Fatalf("seed %d: ABD violated atomicity: %v\n%s", seed, res, h)
		}
	}
}

func TestCrashWithinT(t *testing.T) {
	cfg := quorum.Config{S: 5, T: 2, R: 2, W: 1}
	sim := model.MustNew(cfg, Must("ABD"), model.WithSeed(4))
	sim.CrashServer(types.Server(2), 0)
	sim.CrashServer(types.Server(4), 50)
	var got types.Value
	sim.InvokeAt(0, sim.Writer(1).WriteOp("survives"), func(types.Value, error) {
		sim.InvokeAt(sim.Now()+1, sim.Reader(1).ReadOp(), func(v types.Value, err error) {
			if err != nil {
				t.Errorf("read: %v", err)
			}
			got = v
		})
	})
	sim.Run()
	if got.Data != "survives" {
		t.Fatalf("read %v", got)
	}
}
