package netsim

// These tests drive model.Sim, the timed scheduler over the model's step
// relation. They keep the package and names they had when Sim lived here,
// so test results stay comparable across commits.

import (
	"testing"

	"fastreg/internal/atomicity"
	"fastreg/internal/model"
	"fastreg/internal/mwabd"
	"fastreg/internal/quorum"
	"fastreg/internal/register"
	"fastreg/internal/types"
	"fastreg/internal/vclock"
	"fastreg/internal/w2r1"
)

func cfg521() quorum.Config { return quorum.Config{S: 5, T: 1, R: 2, W: 2} }

func TestSimBasicWriteRead(t *testing.T) {
	sim := model.MustNew(cfg521(), mwabd.New(), model.WithSeed(3))
	var wrote, read types.Value
	sim.InvokeAt(0, sim.Writer(1).WriteOp("hello"), func(v types.Value, err error) {
		if err != nil {
			t.Errorf("write: %v", err)
		}
		wrote = v
		sim.InvokeAt(sim.Now()+1, sim.Reader(1).ReadOp(), func(v types.Value, err error) {
			if err != nil {
				t.Errorf("read: %v", err)
			}
			read = v
		})
	})
	stats := sim.Run()
	if stats.Completed != 2 {
		t.Fatalf("completed = %d, want 2", stats.Completed)
	}
	if read != wrote || read.Data != "hello" {
		t.Fatalf("read %v, wrote %v", read, wrote)
	}
	h := sim.History()
	if err := h.WellFormed(); err != nil {
		t.Fatal(err)
	}
	if res := atomicity.Check(h); !res.Atomic {
		t.Fatalf("history not atomic: %v", res)
	}
}

func TestSimLatencyReflectsRoundTrips(t *testing.T) {
	// With a constant one-way delay d, a k-round operation takes exactly
	// 2kd: this is the Fig 2 latency model.
	const d = 50
	sim := model.MustNew(cfg521(), mwabd.New(), model.WithDelay(model.ConstDelay(d)))
	sim.InvokeAt(0, sim.Writer(1).WriteOp("x"), nil)
	sim.Run()
	ops := sim.History().Completed()
	if len(ops) != 1 {
		t.Fatal("write did not complete")
	}
	lat := ops[0].Response - ops[0].Invoke
	// 2 rounds × 2d = 200, plus the recorder's ±1 tick jitter.
	if lat < 2*2*d || lat > 2*2*d+4 {
		t.Errorf("write latency = %d, want ≈ %d", lat, 4*d)
	}
}

func TestSimCrashToleratedWithinT(t *testing.T) {
	sim := model.MustNew(cfg521(), mwabd.New(), model.WithSeed(5))
	sim.CrashServer(types.Server(3), 0) // crashed from the start; t=1
	done := 0
	sim.InvokeAt(0, sim.Writer(1).WriteOp("v"), func(_ types.Value, err error) {
		if err != nil {
			t.Errorf("write failed: %v", err)
		}
		done++
		sim.InvokeAt(sim.Now()+1, sim.Reader(1).ReadOp(), func(v types.Value, err error) {
			if err != nil {
				t.Errorf("read failed: %v", err)
			}
			if v.Data != "v" {
				t.Errorf("read %v", v)
			}
			done++
		})
	})
	stats := sim.Run()
	if done != 2 {
		t.Fatalf("ops completed = %d, want 2", done)
	}
	if stats.DroppedCrash == 0 {
		t.Error("expected dropped requests at the crashed server")
	}
}

func TestSimTooManyCrashesBlocks(t *testing.T) {
	sim := model.MustNew(cfg521(), mwabd.New())
	sim.CrashServer(types.Server(1), 0)
	sim.CrashServer(types.Server(2), 0) // two crashes, t=1: quorum S-t=4 unreachable
	completed := false
	sim.InvokeAt(0, sim.Writer(1).WriteOp("v"), func(types.Value, error) { completed = true })
	sim.Run()
	if completed {
		t.Fatal("operation completed without a quorum")
	}
	if len(sim.History().Pending()) != 1 {
		t.Fatalf("pending = %d, want 1", len(sim.History().Pending()))
	}
}

func TestSimSkipDelaysPastHorizon(t *testing.T) {
	// Skip r1 ↔ s1: the read must still complete using the other 4 servers.
	base := model.ConstDelay(10)
	sim := model.MustNew(cfg521(), mwabd.New(), model.WithDelay(model.Skip(base, types.Reader(1), types.Server(1))))
	var got types.Value
	sim.InvokeAt(0, sim.Writer(1).WriteOp("v"), func(types.Value, error) {
		sim.InvokeAt(sim.Now()+1, sim.Reader(1).ReadOp(), func(v types.Value, err error) {
			if err != nil {
				t.Errorf("read: %v", err)
			}
			got = v
		})
	})
	stats := sim.Run()
	if got.Data != "v" {
		t.Fatalf("read %v", got)
	}
	if stats.Undeliverable == 0 {
		t.Error("skipped messages should be reported undeliverable")
	}
}

func TestSimDeterministicBySeed(t *testing.T) {
	run := func(seed int64) string {
		sim := model.MustNew(cfg521(), mwabd.New(), model.WithSeed(seed), model.WithDelay(model.UniformDelay(1, 100)))
		for i := 0; i < 3; i++ {
			sim.InvokeAt(vclock.Time(i*7), sim.Writer(1+i%2).WriteOp("v"), nil)
			sim.InvokeAt(vclock.Time(i*11+1), sim.Reader(1+i%2).ReadOp(), nil)
		}
		sim.Run()
		return sim.History().String()
	}
	a, b := run(42), run(42)
	if a != b {
		t.Fatalf("same seed produced different executions:\n%s\nvs\n%s", a, b)
	}
	c := run(43)
	if a == c {
		t.Log("different seeds produced identical executions (possible but suspicious)")
	}
}

func TestSimConcurrentMixedWorkloadAtomic(t *testing.T) {
	for _, p := range []register.Protocol{mwabd.New(), w2r1.New()} {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			cfg := quorum.Config{S: 7, T: 1, R: 2, W: 2}
			if !p.Implementable(cfg) {
				t.Fatalf("%s should be implementable on %v", p.Name(), cfg)
			}
			sim := model.MustNew(cfg, p, model.WithSeed(9), model.WithDelay(model.UniformDelay(5, 80)))
			// Closed-loop sessions per client with overlapping start times.
			var spawn func(client int, isWriter bool, n int)
			spawn = func(client int, isWriter bool, n int) {
				if n == 0 {
					return
				}
				var op register.Operation
				if isWriter {
					op = sim.Writer(client).WriteOp("d")
				} else {
					op = sim.Reader(client).ReadOp()
				}
				sim.InvokeAt(sim.Now()+1, op, func(types.Value, error) {
					spawn(client, isWriter, n-1)
				})
			}
			for c := 1; c <= 2; c++ {
				spawn(c, true, 6)
				spawn(c, false, 6)
			}
			sim.Run()
			h := sim.History()
			if got := len(h.Completed()); got != 24 {
				t.Fatalf("completed = %d, want 24", got)
			}
			if err := h.WellFormed(); err != nil {
				t.Fatal(err)
			}
			if res := atomicity.Check(h); !res.Atomic {
				t.Fatalf("%s produced a non-atomic history: %v\n%s", p.Name(), res, h)
			}
		})
	}
}

func TestSimRunUntil(t *testing.T) {
	sim := model.MustNew(cfg521(), mwabd.New(), model.WithDelay(model.ConstDelay(10)))
	sim.InvokeAt(0, sim.Writer(1).WriteOp("a"), nil)
	sim.RunUntil(15) // mid-flight: only round 1 delivered
	if len(sim.History().Completed()) != 0 {
		t.Fatal("op completed too early")
	}
	if sim.Now() < 15 {
		t.Fatalf("Now = %d", sim.Now())
	}
	sim.Run()
	if len(sim.History().Completed()) != 1 {
		t.Fatal("op never completed")
	}
}

func TestSimServerValuesInspection(t *testing.T) {
	sim := model.MustNew(cfg521(), mwabd.New())
	sim.InvokeAt(0, sim.Writer(1).WriteOp("z"), nil)
	sim.Run()
	vals := sim.ServerValues()
	if len(vals) != 5 {
		t.Fatalf("server count = %d", len(vals))
	}
	for id, v := range vals {
		if v.Data != "z" {
			t.Errorf("server %v holds %v", id, v)
		}
	}
}

func TestSimRejectsBadConfig(t *testing.T) {
	if _, err := model.New(quorum.Config{S: 0}, mwabd.New()); err == nil {
		t.Fatal("bad config accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNew must panic on bad config")
		}
	}()
	model.MustNew(quorum.Config{S: 0}, mwabd.New())
}

func TestCrashServerValidation(t *testing.T) {
	sim := model.MustNew(cfg521(), mwabd.New())
	defer func() {
		if recover() == nil {
			t.Error("CrashServer must reject non-servers")
		}
	}()
	sim.CrashServer(types.Reader(1), 0)
}

func TestUniformDelayValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("UniformDelay must reject hi < lo")
		}
	}()
	model.UniformDelay(10, 5)
}
