package consistency

import (
	"strings"
	"testing"

	"fastreg/internal/atomicity"
	"fastreg/internal/history"
	"fastreg/internal/model"
	"fastreg/internal/mwabd"
	"fastreg/internal/quorum"
	"fastreg/internal/types"
	"fastreg/internal/w1r2"
	"fastreg/internal/workload"
)

func wv(ts int64, w int, data string) types.Value {
	return types.Value{Tag: types.Tag{TS: ts, WID: types.Writer(w)}, Data: data}
}

func TestAtomicHistoryIsClean(t *testing.T) {
	v1, v2 := wv(1, 1, "a"), wv(2, 2, "b")
	h := history.NewBuilder().
		Seq(types.Writer(1), types.OpWrite, v1).
		Seq(types.Reader(1), types.OpRead, v1).
		Seq(types.Writer(2), types.OpWrite, v2).
		Seq(types.Reader(2), types.OpRead, v2).
		History()
	rep := Analyze(h)
	if rep.StaleReads != 0 || rep.MaxStaleness != 0 || rep.KAtomicity != 1 || rep.Inversions != 0 {
		t.Fatalf("clean history scored %+v", rep)
	}
	if rep.Reads != 2 || rep.Writes != 2 {
		t.Fatalf("counts: %+v", rep)
	}
}

func TestStaleReadScoring(t *testing.T) {
	v1, v2, v3 := wv(1, 1, "a"), wv(2, 1, "b"), wv(3, 1, "c")
	// Three completed writes, then a read returning the oldest: staleness 2
	// → 3-atomic.
	h := history.NewBuilder().
		Seq(types.Writer(1), types.OpWrite, v1).
		Seq(types.Writer(1), types.OpWrite, v2).
		Seq(types.Writer(1), types.OpWrite, v3).
		Seq(types.Reader(1), types.OpRead, v1).
		History()
	rep := Analyze(h)
	if rep.StaleReads != 1 || rep.MaxStaleness != 2 || rep.KAtomicity != 3 {
		t.Fatalf("%+v", rep)
	}
	if rep.StaleRate != 1.0 {
		t.Fatalf("rate = %f", rep.StaleRate)
	}
}

func TestInversionCounting(t *testing.T) {
	v1, v2 := wv(1, 1, "a"), wv(2, 2, "b")
	h := history.NewBuilder().
		Seq(types.Writer(1), types.OpWrite, v1).
		Seq(types.Writer(2), types.OpWrite, v2).
		Seq(types.Reader(1), types.OpRead, v2).
		Seq(types.Reader(2), types.OpRead, v1). // goes backwards
		History()
	rep := Analyze(h)
	if rep.Inversions != 1 {
		t.Fatalf("inversions = %d", rep.Inversions)
	}
}

func TestPendingWriteNotCountedStale(t *testing.T) {
	v1, v2 := wv(1, 1, "a"), wv(2, 1, "b")
	h := history.NewBuilder().
		Seq(types.Writer(1), types.OpWrite, v1).
		AddPending(types.Writer(1), types.OpWrite, v2, 100).
		Add(types.Reader(1), types.OpRead, v1, 200, 201).
		History()
	rep := Analyze(h)
	if rep.StaleReads != 0 {
		t.Fatalf("pending write made a read stale: %+v", rep)
	}
}

func TestConcurrentWriteNotCountedStale(t *testing.T) {
	v1, v2 := wv(1, 1, "a"), wv(2, 2, "b")
	h := history.NewBuilder().
		Seq(types.Writer(1), types.OpWrite, v1).
		Add(types.Writer(2), types.OpWrite, v2, 100, 300).
		Add(types.Reader(1), types.OpRead, v1, 200, 250). // concurrent with w2
		History()
	if rep := Analyze(h); rep.StaleReads != 0 {
		t.Fatalf("concurrent write made a read stale: %+v", rep)
	}
}

// The future-work claim made concrete: atomic protocols score k=1; the
// naive fast-write protocol deviates but only boundedly (the quantified
// inconsistency of Section 7 / [28]).
func TestQuantifyFastWriteInconsistency(t *testing.T) {
	cfg := quorum.Config{S: 5, T: 1, R: 2, W: 2}
	// Atomic baseline.
	sim := model.MustNew(cfg, mwabd.New(), model.WithSeed(1), model.WithDelay(model.UniformDelay(1, 120)))
	h := workload.Run(sim, workload.Mix{WritesPerWriter: 6, ReadsPerReader: 6})
	if rep := Analyze(h); rep.KAtomicity != 1 {
		t.Fatalf("W2R2 scored k=%d", rep.KAtomicity)
	}
	// Fast-write strawman: run the cross-writer schedule that loses a
	// write; the loss shows up as bounded staleness, not arbitrary decay.
	sim2 := model.MustNew(cfg, w1r2.New(), model.WithSeed(2))
	sim2.InvokeAt(0, sim2.Writer(2).WriteOp("a"), func(types.Value, error) {
		sim2.InvokeAt(sim2.Now()+1, sim2.Writer(1).WriteOp("b"), func(types.Value, error) {
			sim2.InvokeAt(sim2.Now()+1, sim2.Reader(1).ReadOp(), nil)
		})
	})
	sim2.Run()
	h2 := sim2.History()
	if atomicity.Check(h2).Atomic {
		t.Fatal("expected the fast-write schedule to violate atomicity")
	}
	rep := Analyze(h2)
	if rep.StaleReads == 0 {
		t.Fatalf("violation not visible as staleness: %+v", rep)
	}
	if rep.KAtomicity != 2 {
		t.Fatalf("naive fast write should be 2-atomic here, got k=%d", rep.KAtomicity)
	}
}

func TestFreshest(t *testing.T) {
	h := history.NewBuilder().
		Seq(types.Writer(1), types.OpWrite, wv(1, 1, "a")).
		Seq(types.Writer(1), types.OpWrite, wv(3, 1, "c")).
		Seq(types.Writer(1), types.OpWrite, wv(2, 1, "b")).
		History()
	top := Freshest(h, 2)
	if len(top) != 2 || top[0].Tag.TS != 3 || top[1].Tag.TS != 2 {
		t.Fatalf("Freshest = %v", top)
	}
	if got := Freshest(h, 10); len(got) != 3 {
		t.Fatalf("clamp failed: %v", got)
	}
}

func TestReportString(t *testing.T) {
	s := Report{Reads: 4, Writes: 2, StaleReads: 1, MaxStaleness: 1, KAtomicity: 2, StaleRate: 0.25}.String()
	for _, frag := range []string{"reads=4", "k-atomicity=2", "25.0%"} {
		if !strings.Contains(s, frag) {
			t.Errorf("report %q missing %q", s, frag)
		}
	}
}

func TestEmptyHistory(t *testing.T) {
	rep := Analyze(history.History{})
	if rep.KAtomicity != 1 || rep.StaleRate != 0 {
		t.Fatalf("%+v", rep)
	}
}
