// Package integration_test runs cross-module scenarios: every protocol of
// the design space through both execution environments (discrete-event and
// live goroutines), with crash and skip adversaries, every history checked
// for atomicity where the protocol promises it, and consistency metrics
// where it does not.
package integration_test

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"fastreg/internal/atomicity"
	"fastreg/internal/consistency"
	"fastreg/internal/model"
	"fastreg/internal/netsim"
	"fastreg/internal/protocols"
	"fastreg/internal/quorum"
	"fastreg/internal/register"
	"fastreg/internal/types"
	"fastreg/internal/workload"
)

type protoCase struct {
	name string
	p    register.Protocol
	cfg  quorum.Config
}

// matrix returns every protocol on a configuration where it promises
// atomicity.
func matrix() []protoCase {
	return []protoCase{
		{"W2R2/majority", protocols.Must("W2R2"), quorum.Config{S: 5, T: 2, R: 3, W: 3}},
		{"W2R1/feasible", protocols.Must("W2R1"), quorum.Config{S: 7, T: 1, R: 3, W: 2}},
		{"ABD/single-writer", protocols.Must("ABD"), quorum.Config{S: 5, T: 2, R: 3, W: 1}},
		{"W1R1/single-writer-fast", protocols.Must("W1R1"), quorum.Config{S: 7, T: 1, R: 2, W: 1}},
		{"W1R2/single-writer-degenerate", protocols.Must("W1R2"), quorum.Config{S: 5, T: 1, R: 2, W: 1}},
	}
}

func TestMatrixSimAtomicUnderAdversaries(t *testing.T) {
	for _, tc := range matrix() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			if !tc.p.Implementable(tc.cfg) {
				t.Fatalf("%s should be implementable on %v", tc.p.Name(), tc.cfg)
			}
			for seed := int64(1); seed <= 8; seed++ {
				delay := model.DelayFn(model.UniformDelay(1, 150))
				// The failure budget is t per client: with t ≥ 2 each
				// reader misses a rotating server AND one server crashes;
				// with t = 1 only the crash is injected.
				if tc.cfg.T >= 2 {
					for r := 1; r <= tc.cfg.R; r++ {
						delay = model.Skip(delay, types.Reader(r), types.Server(int(seed+int64(r))%tc.cfg.S+1))
					}
				}
				sim := model.MustNew(tc.cfg, tc.p, model.WithSeed(seed), model.WithDelay(delay))
				if tc.cfg.T >= 1 {
					sim.CrashServer(types.Server(int(seed)%tc.cfg.S+1), 600)
				}
				h := workload.Run(sim, workload.Mix{WritesPerWriter: 4, ReadsPerReader: 4})
				want := tc.cfg.W*4 + tc.cfg.R*4
				if got := len(h.Completed()); got != want {
					t.Fatalf("seed %d: completed %d/%d", seed, got, want)
				}
				if err := h.WellFormed(); err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				if res := atomicity.Check(h); !res.Atomic {
					t.Fatalf("seed %d: %v\n%s", seed, res, h)
				}
				if rep := consistency.Analyze(h); rep.KAtomicity != 1 {
					t.Fatalf("seed %d: atomic history scored k=%d", seed, rep.KAtomicity)
				}
			}
		})
	}
}

// TestMatrixLiveConcurrent runs every protocol on the in-process fleet
// with every batch through the wire codec, one register (key "").
func TestMatrixLiveConcurrent(t *testing.T) {
	ctx := context.Background()
	for _, tc := range matrix() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			l, err := netsim.NewMultiLive(tc.cfg, tc.p, netsim.WithMultiWireEncoding())
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			var wg sync.WaitGroup
			for w := 1; w <= tc.cfg.W; w++ {
				w := w
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 6; i++ {
						if _, err := l.Write(ctx, "", w, fmt.Sprintf("w%d-%d", w, i)); err != nil {
							t.Errorf("write: %v", err)
							return
						}
					}
				}()
			}
			for r := 1; r <= tc.cfg.R; r++ {
				r := r
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < 6; i++ {
						if _, err := l.Read(ctx, "", r); err != nil {
							t.Errorf("read: %v", err)
							return
						}
					}
				}()
			}
			wg.Wait()
			h := l.History("")
			if err := h.WellFormed(); err != nil {
				t.Fatal(err)
			}
			if res := atomicity.Check(h); !res.Atomic {
				t.Fatalf("%v\n%s", res, h)
			}
		})
	}
}

// TestSimAndLiveAgreeOnSequentialSemantics: the two environments implement
// the same protocols; a fully sequential script must produce identical
// value sequences.
func TestSimAndLiveAgreeOnSequentialSemantics(t *testing.T) {
	cfg := quorum.Config{S: 5, T: 1, R: 2, W: 2}
	script := []struct {
		write  bool
		client int
		data   string
	}{
		{true, 1, "a"}, {false, 1, ""}, {true, 2, "b"},
		{false, 2, ""}, {true, 1, "c"}, {false, 1, ""}, {false, 2, ""},
	}

	runSim := func() []string {
		sim := model.MustNew(cfg, protocols.Must("W2R2"), model.WithSeed(1))
		var out []string
		var step func(i int)
		step = func(i int) {
			if i == len(script) {
				return
			}
			s := script[i]
			var op register.Operation
			if s.write {
				op = sim.Writer(s.client).WriteOp(s.data)
			} else {
				op = sim.Reader(s.client).ReadOp()
			}
			sim.InvokeAt(sim.Now()+1, op, func(v types.Value, err error) {
				if err != nil {
					t.Errorf("sim op %d: %v", i, err)
				}
				if !s.write {
					out = append(out, v.Data)
				}
				step(i + 1)
			})
		}
		step(0)
		sim.Run()
		return out
	}

	runLive := func() []string {
		l, err := netsim.NewMultiLive(cfg, protocols.Must("W2R2"))
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		ctx := context.Background()
		var out []string
		for i, s := range script {
			var v types.Value
			var err error
			if s.write {
				_, err = l.Write(ctx, "", s.client, s.data)
			} else {
				v, err = l.Read(ctx, "", s.client)
				out = append(out, v.Data)
			}
			if err != nil {
				t.Fatalf("live op %d: %v", i, err)
			}
		}
		return out
	}

	simOut, liveOut := runSim(), runLive()
	if len(simOut) != len(liveOut) {
		t.Fatalf("lengths differ: %v vs %v", simOut, liveOut)
	}
	for i := range simOut {
		if simOut[i] != liveOut[i] {
			t.Fatalf("read %d: sim %q, live %q", i, simOut[i], liveOut[i])
		}
	}
	want := []string{"a", "b", "c", "c"}
	for i := range want {
		if simOut[i] != want[i] {
			t.Fatalf("sequential semantics wrong: %v, want %v", simOut, want)
		}
	}
}

// TestImpossibleQuadrantsDegradeGracefully: the non-atomic protocols stay
// 2-atomic on the violating schedules this suite can construct.
func TestImpossibleQuadrantsDegradeGracefully(t *testing.T) {
	cfg := quorum.Config{S: 5, T: 1, R: 2, W: 2}
	for _, p := range []register.Protocol{protocols.Must("W1R2"), protocols.Must("W1R1")} {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			worstK := 1
			sawViolation := false
			for seed := int64(1); seed <= 30; seed++ {
				// The directed sequential cross-writer probe, alone: W2
				// then W1 then a read — the naive tags order them wrongly.
				probe := model.MustNew(cfg, p, model.WithSeed(seed))
				probe.InvokeAt(0, probe.Writer(2).WriteOp("x"), func(types.Value, error) {
					probe.InvokeAt(probe.Now()+1, probe.Writer(1).WriteOp("y"), func(types.Value, error) {
						probe.InvokeAt(probe.Now()+1, probe.Reader(1).ReadOp(), nil)
					})
				})
				probe.Run()
				ph := probe.History()
				if !atomicity.Check(ph).Atomic {
					sawViolation = true
				}
				if rep := consistency.Analyze(ph); rep.KAtomicity > worstK {
					worstK = rep.KAtomicity
				}
				// A separate randomized workload contributes staleness
				// statistics.
				sim := model.MustNew(cfg, p, model.WithSeed(seed), model.WithDelay(model.UniformDelay(1, 300)))
				h := workload.Run(sim, workload.Mix{WritesPerWriter: 3, ReadsPerReader: 3})
				if rep := consistency.Analyze(h); rep.KAtomicity > worstK {
					worstK = rep.KAtomicity
				}
			}
			if !sawViolation {
				t.Fatal("expected at least one violating schedule")
			}
			if worstK > 2 {
				t.Fatalf("staleness exceeded 2-atomicity: k=%d", worstK)
			}
		})
	}
}
