// Package sweep_test checks Fig 9's infeasible side through the exported
// sweep, harness.Fig9: on S=3 t=1 (R ≥ S/t − 2 for every R ≥ 1) the
// explorer convicts the R=2 cell with a new-old inversion. It holds tests
// only; the sweep itself lives in internal/harness.
package sweep_test

import (
	"sync"
	"testing"

	"fastreg/internal/atomicity"
	"fastreg/internal/harness"
)

// s3t1 is Fig 9's S=3 t=1 series, explored once for both tests.
var s3t1 = sync.OnceValue(func() []harness.Fig9Cell { return harness.Fig9([][2]int{{3, 1}}) })

// cell returns Fig 9's S=3 t=1 R=2 cell.
func cell(t *testing.T) harness.Fig9Cell {
	t.Helper()
	for _, c := range s3t1() {
		if c.R == 2 {
			return c
		}
	}
	t.Fatal("Fig 9 has no S=3 t=1 R=2 cell")
	return harness.Fig9Cell{}
}

// TestInfeasibleCellDirected: the S=3 t=1 R=2 cell is infeasible, and the
// explorer convicts it.
func TestInfeasibleCellDirected(t *testing.T) {
	c := cell(t)
	if c.Feasible {
		t.Fatal("S=3 t=1 R=2 should be infeasible")
	}
	if c.Explored.Violation == nil {
		t.Fatalf("no violation: %s", c)
	}
	t.Logf("%s", c)
}

// TestDirectedInversionS3T1 is the concrete infeasible-side exhibit for
// Fig 9: the cell's convicting script, replayed alone, lodges the pending
// write on a witness set, r1 returns its value, and r2, after r1, returns
// the initial one.
func TestDirectedInversionS3T1(t *testing.T) {
	v := cell(t).Explored.Violation
	if v == nil {
		t.Fatal("no violation to replay")
	}
	res, h, err := v.Script.Run()
	if err != nil {
		t.Fatal(err)
	}
	r1, r2 := res[1], res[2]
	if !r1.Done || !r2.Done {
		t.Fatalf("reads did not complete: r1=%v r2=%v", r1.Done, r2.Done)
	}
	if r1.Value.Data != "1" {
		t.Fatalf("r1 = %v, want the pending write's value\n%s", r1.Value, h)
	}
	if !r2.Value.IsInitial() {
		t.Fatalf("r2 = %v, want the initial value\n%s", r2.Value, h)
	}
	if atomicity.Check(h).Atomic {
		t.Fatalf("inversion history judged atomic:\n%s", h)
	}
}
