// Package harness regenerates the paper's summary artifacts:
//
//   - Table1 — the design-space verdict table (Table 1): for each quadrant
//     of Fig 2, the theoretical verdict, this repository's empirical
//     verdict (randomized adversarial runs checked for atomicity, plus the
//     executable chain argument for fast writes), and the round-trip
//     counts;
//   - Fig2 — the latency/consistency Hasse diagram as numbers: read and
//     write latency of each protocol at a fixed RTT.
package harness

import (
	"fmt"
	"strings"

	"fastreg/internal/atomicity"
	"fastreg/internal/chains"
	"fastreg/internal/model"
	"fastreg/internal/mwabd"
	"fastreg/internal/quorum"
	"fastreg/internal/register"
	"fastreg/internal/types"
	"fastreg/internal/vclock"
	"fastreg/internal/w1r1"
	"fastreg/internal/w1r2"
	"fastreg/internal/w2r1"
	"fastreg/internal/workload"
)

// DesignSpace returns the four protocols of Fig 2 in Table 1 order.
func DesignSpace() []register.Protocol {
	return []register.Protocol{mwabd.New(), w1r2.New(), w2r1.New(), w1r1.New()}
}

// Table1Row is one row of the reproduced Table 1.
type Table1Row struct {
	Design string // "W2R2", "W1R2", "W2R1", "W1R1" (W<write RTTs>R<read RTTs>)
	// Claim is the paper's verdict for the row's configuration.
	Claim bool
	// Empirical is this run's verdict: true = all adversarial histories
	// atomic, false = a violation was exhibited.
	Empirical bool
	// Evidence describes how the verdict was obtained.
	Evidence string
}

// String renders the row.
func (r Table1Row) String() string {
	claim := "impossible"
	if r.Claim {
		claim = "atomic"
	}
	emp := "VIOLATION"
	if r.Empirical {
		emp = "atomic"
	}
	return fmt.Sprintf("%-6s paper:%-10s measured:%-9s  %s", r.Design, claim, emp, r.Evidence)
}

// Table1 reproduces Table 1 on the canonical configuration S=5, t=1, W=2,
// R=2 (each quadrant's verdict at that point of the parameter space).
func Table1(trialsPerProtocol int) []Table1Row {
	cfg := quorum.Config{S: 5, T: 1, R: 2, W: 2}
	var rows []Table1Row
	for _, p := range DesignSpace() {
		row := Table1Row{
			Design: p.Name(),
			Claim:  p.Implementable(cfg),
		}
		row.Empirical, row.Evidence = judge(p, cfg, trialsPerProtocol)
		rows = append(rows, row)
	}
	return rows
}

// judge gathers the empirical verdict for one protocol: randomized
// adversarial workloads, then — for fast-write candidates — the executable
// chain argument, which is guaranteed to find the violation when one is
// forced.
func judge(p register.Protocol, cfg quorum.Config, trials int) (atomic bool, evidence string) {
	for seed := int64(1); seed <= int64(trials); seed++ {
		sim := model.MustNew(cfg, p, model.WithSeed(seed), model.WithDelay(model.UniformDelay(1, 150)))
		h := workload.Run(sim, workload.Mix{WritesPerWriter: 4, ReadsPerReader: 4})
		if res := atomicity.Check(h); !res.Atomic {
			return false, fmt.Sprintf("random schedule seed=%d: %s", seed, res.Violation.Code)
		}
	}
	// Sequential cross-writer probe (the simplest adversary for fast
	// writes).
	sim := model.MustNew(cfg, p, model.WithSeed(99))
	sim.InvokeAt(0, sim.Writer(2).WriteOp("a"), func(types.Value, error) {
		sim.InvokeAt(sim.Now()+1, sim.Writer(1).WriteOp("b"), func(types.Value, error) {
			sim.InvokeAt(sim.Now()+1, sim.Reader(1).ReadOp(), nil)
		})
	})
	sim.Run()
	if res := atomicity.Check(sim.History()); !res.Atomic {
		return false, "sequential cross-writer writes: " + res.Violation.Code.String()
	}
	// Executable Theorem 1 argument for fast-write candidates.
	if p.WriteRounds() == 1 && p.ReadRounds() == 2 {
		rep, err := chains.FindViolation(p, cfg.S)
		if err == nil && len(rep.Violations) > 0 {
			v := rep.First()
			return false, fmt.Sprintf("chain argument: %s/%s %s", v.Phase, v.Execution, v.Result.Violation.Code)
		}
	}
	return true, fmt.Sprintf("%d adversarial schedules atomic", trials+1)
}

// RenderTable1 formats the rows with the Table 1 header.
func RenderTable1(rows []Table1Row) string {
	var b strings.Builder
	b.WriteString("Table 1 — design space of fast MWMR atomic register implementations (S=5 t=1 W=2 R=2)\n")
	for _, r := range rows {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// Fig2Row is one protocol's latency point in the Hasse diagram.
type Fig2Row struct {
	Design            string
	WriteRTT, ReadRTT float64 // latency in round trips (derived from virtual time)
	WriteLat, ReadLat workload.LatencyStats
	ConsistencyAtomic bool // whether the protocol is atomic on the config
}

// String renders the row.
func (r Fig2Row) String() string {
	cons := "weak"
	if r.ConsistencyAtomic {
		cons = "atomic"
	}
	return fmt.Sprintf("%-6s write=%.1f RTT read=%.1f RTT consistency=%-6s (write %s | read %s)",
		r.Design, r.WriteRTT, r.ReadRTT, cons, r.WriteLat, r.ReadLat)
}

// Fig2 measures the latency shape of the Hasse diagram: each protocol's
// write/read latency at a constant one-way delay, expressed in RTTs.
func Fig2(oneWay vclock.Duration) []Fig2Row {
	cfg := quorum.Config{S: 5, T: 1, R: 2, W: 2}
	rtt := float64(2 * oneWay)
	var rows []Fig2Row
	for _, p := range DesignSpace() {
		sim := model.MustNew(cfg, p, model.WithDelay(model.ConstDelay(oneWay)))
		h := workload.Run(sim, workload.Mix{WritesPerWriter: 5, ReadsPerReader: 5})
		stats := workload.Measure(h)
		rows = append(rows, Fig2Row{
			Design:            p.Name(),
			WriteLat:          stats[types.OpWrite],
			ReadLat:           stats[types.OpRead],
			WriteRTT:          stats[types.OpWrite].Mean / rtt,
			ReadRTT:           stats[types.OpRead].Mean / rtt,
			ConsistencyAtomic: p.Implementable(cfg),
		})
	}
	return rows
}

// RenderFig2 formats the rows with the Fig 2 header.
func RenderFig2(rows []Fig2Row) string {
	var b strings.Builder
	b.WriteString("Fig 2 — latency/consistency trade-off (constant one-way delay; latency in RTTs)\n")
	for _, r := range rows {
		b.WriteString(r.String())
		b.WriteByte('\n')
	}
	return b.String()
}
