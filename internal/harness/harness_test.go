package harness

import (
	"strings"
	"testing"
)

// TestTable1MatchesPaper is the headline reproduction of Table 1: the
// explored verdict of every quadrant must settle the paper's claim at
// S=5, t=1, W=2, R=2: CLEAN for the atomic ones, a violation for the rest.
func TestTable1MatchesPaper(t *testing.T) {
	rows := Table1()
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	want := map[string]bool{
		"W2R2": true,  // t < S/2
		"W1R2": false, // Theorem 1 (this paper)
		"W2R1": true,  // R < S/t − 2 holds at (5,1,2)
		"W1R1": false, // [12] multi-writer
	}
	for _, r := range rows {
		claim, ok := want[r.Design]
		if !ok {
			t.Fatalf("unexpected design %q", r.Design)
		}
		if r.Claim != claim {
			t.Errorf("%s: paper claim rendered as %v, want %v", r.Design, r.Claim, claim)
		}
		if !settled(claim, r.Explored) || (r.Explored.Violation == nil) != claim {
			t.Errorf("%s: measured %s disagrees with the paper's %v", r.Design, measured(claim, r.Explored, table1Depth), claim)
		}
	}
	out := RenderTable1(rows)
	if !strings.Contains(out, "Table 1") || !strings.Contains(out, "W2R1") {
		t.Errorf("render:\n%s", out)
	}
}

// TestFig2LatencyShape: the Hasse diagram's latency ordering — fast
// operations take 1 RTT, slow ones 2.
func TestFig2LatencyShape(t *testing.T) {
	rows := Fig2(50)
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	wantRTT := map[string][2]float64{
		"W2R2": {2, 2},
		"W1R2": {1, 2},
		"W2R1": {2, 1},
		"W1R1": {1, 1},
	}
	for _, r := range rows {
		want := wantRTT[r.Design]
		if !approx(r.WriteRTT, want[0]) || !approx(r.ReadRTT, want[1]) {
			t.Errorf("%s: measured (%.2f, %.2f) RTTs, want (%.0f, %.0f)",
				r.Design, r.WriteRTT, r.ReadRTT, want[0], want[1])
		}
	}
	// The trade-off: only W2R2 and W2R1 are atomic at this config, and
	// W2R1's read is strictly faster than W2R2's.
	byName := map[string]Fig2Row{}
	for _, r := range rows {
		byName[r.Design] = r
	}
	if !byName["W2R2"].ConsistencyAtomic || !byName["W2R1"].ConsistencyAtomic {
		t.Error("atomic quadrants misclassified")
	}
	if byName["W1R2"].ConsistencyAtomic || byName["W1R1"].ConsistencyAtomic {
		t.Error("impossible quadrants misclassified")
	}
	if byName["W2R1"].ReadLat.Mean >= byName["W2R2"].ReadLat.Mean {
		t.Errorf("fast read not faster: W2R1 %.1f vs W2R2 %.1f",
			byName["W2R1"].ReadLat.Mean, byName["W2R2"].ReadLat.Mean)
	}
	out := RenderFig2(rows)
	if !strings.Contains(out, "Fig 2") {
		t.Errorf("render:\n%s", out)
	}
}

func approx(got, want float64) bool {
	return got > want*0.95 && got < want*1.1
}

func TestDesignSpaceOrder(t *testing.T) {
	names := []string{}
	for _, p := range DesignSpace() {
		names = append(names, p.Name())
	}
	want := []string{"W2R2", "W1R2", "W2R1", "W1R1"}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("order %v, want %v", names, want)
		}
	}
}

// TestFeasibleCellsAtomic: on Fig 9's feasible side the explorer finds no
// violation. A cell at t = 1 runs one server at a time and reads CLEAN once
// it runs every script through its depth; a cell at t ≥ 2 runs in blocks
// of t and never reads CLEAN, even when it runs every script through its
// depth, as S=12 t=3 R=1 does.
func TestFeasibleCellsAtomic(t *testing.T) {
	for _, cell := range []struct {
		s, tt, r int
		row      string
	}{
		{5, 1, 2, "explored:CLEAN (deviation ≤ 4,"},
		{6, 1, 3, "explored:beyond scope"},
		{9, 2, 2, "explored:beyond scope"},
		{12, 3, 1, "explored:beyond scope"},
	} {
		c := exploreCell(cell.s, cell.tt, cell.r)
		if !c.Feasible {
			t.Fatalf("cell (%d,%d,%d) should be feasible", cell.s, cell.tt, cell.r)
		}
		if v := c.Explored.Violation; v != nil {
			t.Errorf("feasible cell (%d,%d,%d) violated: %s\n%s", cell.s, cell.tt, cell.r, v.Result, v.History)
		}
		if !strings.Contains(c.String(), cell.row) {
			t.Errorf("cell row = %q, want %q", c.String(), cell.row)
		}
	}
}

func TestBoundaryTable(t *testing.T) {
	cells := Fig9([][2]int{{3, 1}, {6, 2}})
	if len(cells) == 0 {
		t.Fatal("empty boundary")
	}
	// Cells must be monotone: feasible exactly below the threshold.
	for _, c := range cells {
		if want := c.R*c.T+2*c.T < c.S; c.Feasible != want {
			t.Errorf("cell %+v: formula mismatch", c)
		}
		if settled(c.Feasible, c.Explored) && c.Feasible != (c.Explored.Violation == nil) {
			t.Errorf("cell %s disagrees with the paper", c)
		}
		// A conviction replays alone to the same history.
		if v := c.Explored.Violation; v != nil {
			if _, h, err := v.Script.Run(); err != nil || h.String() != v.History.String() {
				t.Errorf("cell %s replays to\n%s(err %v), explored\n%s", c, h, err, v.History)
			}
		}
	}
	if table := RenderFig9(cells); !strings.Contains(table, "Fig 9") || !strings.Contains(table, "beyond scope: S=3 t=1 R=1") {
		t.Errorf("table:\n%s", table)
	}
}
