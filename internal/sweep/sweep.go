// Package sweep maps the fast-read feasibility boundary of Section 5:
// a W2R1 implementation exists iff R < S/t − 2 (Fig 9 illustrates the
// impossibility side).
//
// For every (S, t, R) cell the sweep reports:
//
//   - the paper's verdict (the formula, via quorum.Config.FastReadOK);
//   - an empirical verdict from randomized adversarial executions of the
//     W2R1 implementation (random delays, per-client server skips, up to t
//     crashes), every history checked for atomicity;
//   - on the impossible side, a directed construction: a pending write
//     lodged on exactly S−2t servers, a first reader that admits it at
//     degree 2, and a second reader that skips every witness — a forced
//     new-old inversion whenever S ≤ 3t. For larger S one reader cannot
//     avoid the whole witness set, and Section 5's general construction is
//     not built yet: cmd/repro lists those cells in EXPERIMENTS.md as the
//     ones where the impossible side is the formula, not a measurement.
package sweep

import (
	"fmt"
	"strings"

	"fastreg/internal/atomicity"
	"fastreg/internal/chains"
	"fastreg/internal/model"
	"fastreg/internal/quorum"
	"fastreg/internal/register"
	"fastreg/internal/types"
	"fastreg/internal/vclock"
	"fastreg/internal/w2r1"
)

// Cell is one point of the boundary sweep.
type Cell struct {
	S, T, R int
	// Feasible is the paper's formula R < S/t − 2.
	Feasible bool
	// RandomTrials ran with all histories atomic iff RandomAtomic.
	RandomTrials int
	RandomAtomic bool
	// FirstBadSeed is the first seed whose history violated atomicity
	// (0 when none).
	FirstBadSeed int64
	// Directed reports the directed inversion attempt (infeasible cells
	// with S ≤ 3t only).
	DirectedAttempted bool
	DirectedViolation bool
}

// String renders one row of the Fig 9-style table.
func (c Cell) String() string {
	verdict := "atomic"
	if !c.RandomAtomic {
		verdict = fmt.Sprintf("VIOLATION(seed=%d)", c.FirstBadSeed)
	}
	directed := "-"
	if c.DirectedAttempted {
		directed = "no"
		if c.DirectedViolation {
			directed = "VIOLATION"
		}
	}
	formula := "R<S/t-2"
	if !c.Feasible {
		formula = "R≥S/t-2"
	}
	return fmt.Sprintf("S=%-3d t=%-2d R=%-3d %-9s random:%-20s directed:%s", c.S, c.T, c.R, formula, verdict, directed)
}

// RunCell evaluates one (S, t, R) cell with the given number of randomized
// trials.
func RunCell(s, t, r, trials int) Cell {
	cfg := quorum.Config{S: s, T: t, R: r, W: 2}
	cell := Cell{S: s, T: t, R: r, Feasible: cfg.FastReadOK(), RandomTrials: trials, RandomAtomic: true}
	for seed := int64(1); seed <= int64(trials); seed++ {
		if !runRandomTrial(cfg, seed) {
			cell.RandomAtomic = false
			cell.FirstBadSeed = seed
			break
		}
	}
	if !cell.Feasible && r >= 2 && s <= 3*t && s-2*t >= 1 {
		cell.DirectedAttempted = true
		out, err := DirectedInversion(s, t)
		if err == nil {
			cell.DirectedViolation = !atomicity.Check(out.History).Atomic
		}
	}
	return cell
}

// runRandomTrial executes one adversarial randomized schedule and reports
// whether the history was atomic.
func runRandomTrial(cfg quorum.Config, seed int64) bool {
	delay := model.DelayFn(model.UniformDelay(1, 200))
	// Each reader permanently misses one server (rotating by seed); the
	// writers miss another. Never more than t skips per client.
	if cfg.T >= 1 {
		for i := 1; i <= cfg.R; i++ {
			srv := int((seed+int64(i)))%cfg.S + 1
			delay = model.Skip(delay, types.Reader(i), types.Server(srv))
		}
		delay = model.Skip(delay, types.Writer(1), types.Server(int(seed)%cfg.S+1))
	}
	sim := model.MustNew(cfg, w2r1.New(), model.WithSeed(seed), model.WithDelay(delay))
	// Crash up to t servers mid-run.
	for i := 0; i < cfg.T; i++ {
		sim.CrashServer(types.Server((int(seed)+i*2)%cfg.S+1), vclock.Time(400+100*i))
	}
	var spawn func(c int, write bool, n int)
	spawn = func(c int, write bool, n int) {
		if n == 0 {
			return
		}
		var op register.Operation
		if write {
			op = sim.Writer(1 + (c-1)%cfg.W).WriteOp(fmt.Sprintf("d%d", n))
		} else {
			op = sim.Reader(1 + (c-1)%cfg.R).ReadOp()
		}
		sim.InvokeAt(sim.Now()+1, op, func(types.Value, error) { spawn(c, write, n-1) })
	}
	for c := 1; c <= 2; c++ {
		spawn(c, true, 4)
		spawn(c, false, 4)
	}
	sim.Run()
	return atomicity.Check(sim.History()).Atomic
}

// DirectedInversion builds the forced new-old inversion for an infeasible
// cell with S ≤ 3t: the write's second round reaches only the witness set
// A = {s_1 … s_{S−2t}} (the write stays pending); reader r1 hears all of A
// and admits the value at degree 2; reader r2 skips all of A — legal, since
// |A| ≤ t — and must return an older value although it follows r1.
func DirectedInversion(s, t int) (*chains.Outcome, error) {
	if s-2*t < 1 || s > 3*t {
		return nil, fmt.Errorf("sweep: directed inversion needs 2t < S ≤ 3t, got S=%d t=%d", s, t)
	}
	cfg := quorum.Config{S: s, T: t, R: 2, W: 2}
	p := w2r1.New()
	ops := []chains.OpMaker{
		{Name: "W1", Rounds: 2, Make: func() register.Operation {
			return p.NewWriter(types.Writer(1), cfg).WriteOp("v")
		}},
		{Name: "R1", Rounds: 1, Make: func() register.Operation {
			return p.NewReader(types.Reader(1), cfg).ReadOp()
		}},
		{Name: "R2", Rounds: 1, Make: func() register.Operation {
			return p.NewReader(types.Reader(2), cfg).ReadOp()
		}},
	}
	global := []chains.RT{{Op: 0, Round: 1}, {Op: 0, Round: 2}, {Op: 1, Round: 1}, {Op: 2, Round: 1}}
	spec := chains.NewSpec(fmt.Sprintf("fig9-inversion-S%d-t%d", s, t), s, ops, global)
	witnesses := s - 2*t
	// The write's update round reaches only the witnesses.
	for srv := witnesses + 1; srv <= s; srv++ {
		spec.SkipAt(srv, chains.RT{Op: 0, Round: 2})
	}
	// r1 skips t non-witness servers (it hears all witnesses).
	for srv := s - t + 1; srv <= s; srv++ {
		spec.SkipAt(srv, chains.RT{Op: 1, Round: 1})
	}
	// r2 skips every witness (|A| = S−2t ≤ t).
	for srv := 1; srv <= witnesses; srv++ {
		spec.SkipAt(srv, chains.RT{Op: 2, Round: 1})
	}
	return spec.Run(func(id types.ProcID) register.ServerLogic { return p.NewServer(id, cfg) })
}

// Boundary sweeps R around the threshold for each (S, t) and returns the
// table of cells — the Fig 9 series.
func Boundary(configs [][2]int, trials int) []Cell {
	var cells []Cell
	for _, st := range configs {
		s, t := st[0], st[1]
		maxR := quorum.Config{S: s, T: t}.MaxFastReaders()
		if maxR < 1 {
			maxR = 1
		}
		for r := max(1, maxR-1); r <= maxR+2; r++ {
			cells = append(cells, RunCell(s, t, r, trials))
		}
	}
	return cells
}

// Render formats the cells as the Fig 9 table.
func Render(cells []Cell) string {
	var b strings.Builder
	b.WriteString("Fig 9 / Section 5 — fast read feasibility boundary (W2R1, Algorithm 1&2)\n")
	for _, c := range cells {
		b.WriteString(c.String())
		b.WriteByte('\n')
	}
	return b.String()
}
