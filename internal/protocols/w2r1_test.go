package protocols

import (
	"testing"

	"fastreg/internal/atomicity"
	"fastreg/internal/history"
	"fastreg/internal/model"
	"fastreg/internal/quorum"
	"fastreg/internal/types"
	"fastreg/internal/vclock"
)

// feasible is the reference configuration: S=5, t=1, R=2 < 5/1-2.
func feasible() quorum.Config { return cfg(5, 1, 2, 2) }

func TestImplementableIsTheFastReadBound(t *testing.T) {
	cases := []struct {
		s, tt, r int
		want     bool
	}{
		{5, 1, 2, true},
		{5, 1, 3, false},
		{9, 2, 2, true},
		{9, 2, 3, false},
		{4, 1, 1, true},
		{4, 1, 2, false},
	}
	for _, c := range cases {
		if got := Must("W2R1").Implementable(cfg(c.s, c.tt, c.r, 2)); got != c.want {
			t.Errorf("Implementable(S=%d,t=%d,R=%d) = %v, want %v", c.s, c.tt, c.r, got, c.want)
		}
	}
}

// mwaScan checks the MWA properties of Appendix A.1 directly on a history.
func mwaScan(t *testing.T, h history.History) {
	t.Helper()
	writes := make(map[types.Value]history.Op)
	for _, w := range h.Writes() {
		writes[w.Value] = w
	}
	reads := h.Reads()
	for _, rd := range reads {
		// MWA1: nonnegative timestamp (with a writer id unless initial).
		if rd.Value.Tag.TS < 0 {
			t.Errorf("MWA1: %s returned negative ts", rd.Key())
		}
		// MWA3: the read does not precede the write of the value it
		// returns.
		if !rd.Value.IsInitial() {
			w, ok := writes[rd.Value]
			if !ok {
				t.Errorf("read %s returned unwritten %v", rd.Key(), rd.Value)
				continue
			}
			if rd.Precedes(w) {
				t.Errorf("MWA3: %s precedes its write %s", rd.Key(), w.Key())
			}
		}
		// MWA2: a read following a write returns at least that write.
		for _, w := range h.Writes() {
			if w.Precedes(rd) && rd.Value.Less(w.Value) {
				t.Errorf("MWA2: %s returned %v older than preceding write %v", rd.Key(), rd.Value, w.Value)
			}
		}
	}
	// MWA4: sequential reads return monotone values.
	for i, r1 := range reads {
		for j, r2 := range reads {
			if i != j && r1.Precedes(r2) && r2.Value.Less(r1.Value) {
				t.Errorf("MWA4: %s=%v then %s=%v", r1.Key(), r1.Value, r2.Key(), r2.Value)
			}
		}
	}
	// MWA0 is by construction: sequential writes get increasing tags —
	// checked via the atomicity checker elsewhere.
}

func TestSequentialSemantics(t *testing.T) {
	sim := model.MustNew(feasible(), Must("W2R1"), model.WithSeed(2))
	var reads []types.Value
	step3 := func(types.Value, error) {}
	step2 := func(types.Value, error) {
		sim.InvokeAt(sim.Now()+1, sim.Reader(2).ReadOp(), func(v types.Value, err error) {
			if err != nil {
				t.Errorf("read2: %v", err)
			}
			reads = append(reads, v)
			step3(v, nil)
		})
	}
	sim.InvokeAt(0, sim.Writer(1).WriteOp("first"), func(types.Value, error) {
		sim.InvokeAt(sim.Now()+1, sim.Reader(1).ReadOp(), func(v types.Value, err error) {
			if err != nil {
				t.Errorf("read1: %v", err)
			}
			reads = append(reads, v)
			step2(v, nil)
		})
	})
	sim.Run()
	if len(reads) != 2 {
		t.Fatalf("reads = %d", len(reads))
	}
	for _, v := range reads {
		if v.Data != "first" {
			t.Fatalf("read %v", v)
		}
	}
	mwaScan(t, sim.History())
	if res := atomicity.Check(sim.History()); !res.Atomic {
		t.Fatalf("%v", res)
	}
}

func TestFastReadIsOneRound(t *testing.T) {
	// With constant delay d, the fast read must take exactly 2d (one round
	// trip) — half of the W2R2 read. This is the Fig 2 latency claim.
	const d = 100
	sim := model.MustNew(feasible(), Must("W2R1"), model.WithDelay(model.ConstDelay(d)))
	sim.InvokeAt(0, sim.Writer(1).WriteOp("x"), func(types.Value, error) {
		sim.InvokeAt(sim.Now()+1, sim.Reader(1).ReadOp(), nil)
	})
	sim.Run()
	var readLat vclock.Duration
	for _, o := range sim.History().Completed() {
		if o.Kind == types.OpRead {
			readLat = o.Response.Sub(o.Invoke)
		}
	}
	if readLat < 2*d || readLat > 2*d+4 {
		t.Fatalf("fast read latency = %d, want ≈ %d", readLat, 2*d)
	}
}

func TestRandomizedSchedulesStayAtomicWhenFeasible(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		sim := model.MustNew(feasible(), Must("W2R1"), model.WithSeed(seed), model.WithDelay(model.UniformDelay(1, 150)))
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
			spawn(c, true, 5)
			spawn(c, false, 5)
		}
		sim.Run()
		h := sim.History()
		if len(h.Completed()) != 20 {
			t.Fatalf("seed %d: completed %d", seed, len(h.Completed()))
		}
		mwaScan(t, h)
		if res := atomicity.Check(h); !res.Atomic {
			t.Fatalf("seed %d: %v\n%s", seed, res, h)
		}
	}
}

func TestCrashToleranceWithinT(t *testing.T) {
	c := cfg(9, 2, 2, 2) // 2 < 9/2-2 = 2.5 ✓ feasible
	sim := model.MustNew(c, Must("W2R1"), model.WithSeed(3))
	sim.InvokeAt(0, sim.Writer(1).WriteOp("durable"), nil)
	sim.RunUntil(200)
	sim.CrashServer(types.Server(1), sim.Now())
	sim.CrashServer(types.Server(5), sim.Now())
	var got types.Value
	sim.InvokeAt(sim.Now()+1, sim.Reader(1).ReadOp(), func(v types.Value, err error) {
		if err != nil {
			t.Errorf("read: %v", err)
		}
		got = v
	})
	sim.Run()
	if got.Data != "durable" {
		t.Fatalf("read %v", got)
	}
}

// TestSkipPatternsStayAtomicWhenFeasible drives skip-based adversaries:
// every reader permanently misses a (different) server.
func TestSkipPatternsStayAtomicWhenFeasible(t *testing.T) {
	c := feasible()
	for seed := int64(1); seed <= 10; seed++ {
		delay := model.UniformDelay(1, 100)
		delay = model.Skip(delay, types.Reader(1), types.Server(1))
		delay = model.Skip(delay, types.Reader(2), types.Server(2))
		delay = model.Skip(delay, types.Writer(1), types.Server(3))
		sim := model.MustNew(c, Must("W2R1"), model.WithSeed(seed), model.WithDelay(delay))
		var spawn func(c int, write bool, n int)
		spawn = func(cl int, write bool, n int) {
			if n == 0 {
				return
			}
			op := sim.Reader(cl).ReadOp()
			if write {
				op = sim.Writer(cl).WriteOp("y")
			}
			sim.InvokeAt(sim.Now()+1, op, func(types.Value, error) { spawn(cl, write, n-1) })
		}
		spawn(1, true, 4)
		spawn(2, true, 4)
		spawn(1, false, 4)
		spawn(2, false, 4)
		sim.Run()
		h := sim.History()
		if len(h.Completed()) != 16 {
			t.Fatalf("seed %d: completed %d", seed, len(h.Completed()))
		}
		mwaScan(t, h)
		if res := atomicity.Check(h); !res.Atomic {
			t.Fatalf("seed %d: %v\n%s", seed, res, h)
		}
	}
}

// The infeasible side of the Section 5 boundary (R ≥ S/t − 2) is exhibited
// by the bounded explorer in internal/model (Fig 9 in internal/harness),
// which scripts executions that skip individual round-trips.
