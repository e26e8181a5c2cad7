// Package harness regenerates the paper's summary artifacts:
//
//   - Table1 — the design-space verdict table (Table 1): each quadrant of
//     Fig 2 at S=5 t=1 W=2 R=2, the paper's verdict next to the explorer's
//     on the skeleton {w1, w2, r1} through deviation 3;
//   - Fig2 — the latency/consistency Hasse diagram as numbers: read and
//     write latency of each protocol at a fixed RTT;
//   - Fig9 — the fast-read boundary of Section 5, where W2R1 exists iff
//     R < S/t − 2: each (S, t, R) cell's formula next to the explorer's
//     verdict on the skeleton {w1, r1 … rk}, k = min(R, 3), with servers in
//     blocks of t (deviation counted per block), through deviation 4 or
//     50000 executions.
//
// The explorer is model.Skeleton.Explore. A violation settles a claim that
// some execution violates atomicity; only a search one server at a time
// through its depth settles a claim that none does (CLEAN). Any other
// claim is beyond scope: its verdict is the formula, not a measurement.
package harness

import (
	"fmt"
	"math"
	"strings"

	"fastreg/internal/model"
	"fastreg/internal/protocols"
	"fastreg/internal/quorum"
	"fastreg/internal/register"
	"fastreg/internal/types"
	"fastreg/internal/vclock"
	"fastreg/internal/workload"
)

// DesignSpace returns the four protocols of Fig 2 in Table 1 order.
func DesignSpace() []register.Protocol {
	return []register.Protocol{protocols.Must("W2R2"), protocols.Must("W1R2"), protocols.Must("W2R1"), protocols.Must("W1R1")}
}

const table1Depth, fig9Depth, fig9Executions = 3, 4, 50000 // the explorer's bounds

// settled reports whether ex settles a claim that the protocol is atomic
// (atomic) or that an execution violates atomicity (!atomic).
func settled(atomic bool, ex model.Exploration) bool {
	return ex.Violation != nil || atomic && ex.Clean
}

// measured renders ex's verdict on the claim, of a search through depth.
func measured(atomic bool, ex model.Exploration, depth int) string {
	switch v := ex.Violation; {
	case v != nil:
		return fmt.Sprintf("VIOLATION (%s at execution %d, deviation %d)", v.Result.Violation.Code, ex.Executions, v.Deviation)
	case settled(atomic, ex):
		return fmt.Sprintf("CLEAN (deviation ≤ %d, %d executions)", depth, ex.Executions)
	}
	return fmt.Sprintf("beyond scope (%d executions)", ex.Executions)
}

// render formats rows under a header line.
func render[T fmt.Stringer](header string, rows []T) string {
	var b strings.Builder
	b.WriteString(header + "\n")
	for _, r := range rows {
		b.WriteString(r.String() + "\n")
	}
	return b.String()
}

// Table1Row is one row of the reproduced Table 1.
type Table1Row struct {
	Design string // "W2R2", "W1R2", "W2R1", "W1R1" (W<write RTTs>R<read RTTs>)
	// Claim is the paper's verdict for the row's configuration.
	Claim    bool
	Explored model.Exploration
}

// String renders the row.
func (r Table1Row) String() string {
	claim := "impossible"
	if r.Claim {
		claim = "atomic"
	}
	emp := "VIOLATION"
	if r.Explored.Violation == nil {
		emp = "atomic"
	}
	return fmt.Sprintf("%-6s paper:%-10s measured:%-9s  explored %s", r.Design, claim, emp, measured(r.Claim, r.Explored, table1Depth))
}

// Table1 reproduces Table 1 on the canonical configuration S=5, t=1, W=2,
// R=2 (each quadrant's verdict at that point of the parameter space).
func Table1() []Table1Row {
	cfg := quorum.Config{S: 5, T: 1, R: 2, W: 2}
	var rows []Table1Row
	for _, p := range DesignSpace() {
		sk := model.Skeleton{Protocol: p, Config: cfg, Clients: []types.ProcID{types.Writer(1), types.Writer(2), types.Reader(1)}}
		rows = append(rows, Table1Row{Design: p.Name(), Claim: p.Implementable(cfg), Explored: sk.Explore(table1Depth, math.MaxInt)})
	}
	return rows
}

// RenderTable1 formats the rows with the Table 1 header.
func RenderTable1(rows []Table1Row) string {
	return render("Table 1 — design space of fast MWMR atomic register implementations (S=5 t=1 W=2 R=2)", rows)
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
	return render("Fig 2 — latency/consistency trade-off (constant one-way delay; latency in RTTs)", rows)
}

// Fig9Cell is one point of the fast-read boundary.
type Fig9Cell struct {
	S, T, R int
	// Feasible is the paper's formula R < S/t − 2.
	Feasible bool
	Explored model.Exploration
}

// String renders the cell's row.
func (c Fig9Cell) String() string {
	formula := "R<S/t-2"
	if !c.Feasible {
		formula = "R≥S/t-2"
	}
	return fmt.Sprintf("S=%-3d t=%-2d R=%-3d %-9s explored:%s", c.S, c.T, c.R, formula, measured(c.Feasible, c.Explored, fig9Depth))
}

// exploreCell evaluates one (S, t, R) cell.
func exploreCell(s, t, r int) Fig9Cell {
	cfg := quorum.Config{S: s, T: t, R: r, W: 2}
	sk := model.Skeleton{Protocol: protocols.Must("W2R1"), Config: cfg, Clients: []types.ProcID{types.Writer(1)}}
	for i := 1; i <= min(r, 3); i++ {
		sk.Clients = append(sk.Clients, types.Reader(i))
	}
	return Fig9Cell{S: s, T: t, R: r, Feasible: cfg.FastReadOK(), Explored: sk.Explore(fig9Depth, fig9Executions)}
}

// Fig9 sweeps R around the threshold for each (S, t): the Fig 9 series.
func Fig9(configs [][2]int) []Fig9Cell {
	var cells []Fig9Cell
	for _, st := range configs {
		s, t := st[0], st[1]
		maxR := max(quorum.Config{S: s, T: t}.MaxFastReaders(), 1)
		for r := max(1, maxR-1); r <= maxR+2; r++ {
			cells = append(cells, exploreCell(s, t, r))
		}
	}
	return cells
}

// RenderFig9 formats the cells with the Fig 9 header, then names the cells
// beyond scope.
func RenderFig9(cells []Fig9Cell) string {
	var gaps []string
	for _, c := range cells {
		if !settled(c.Feasible, c.Explored) {
			gaps = append(gaps, fmt.Sprintf("S=%d t=%d R=%d", c.S, c.T, c.R))
		}
	}
	out := render("Fig 9 / Section 5 — fast read feasibility boundary (W2R1, Algorithm 1&2)", cells)
	if len(gaps) > 0 {
		out += "\nbeyond scope: " + strings.Join(gaps, ", ") + "\n"
	}
	return out
}
