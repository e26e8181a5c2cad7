package workload

import (
	"testing"

	"fastreg/internal/atomicity"
	"fastreg/internal/model"
	"fastreg/internal/mwabd"
	"fastreg/internal/quorum"
	"fastreg/internal/register"
	"fastreg/internal/types"
	"fastreg/internal/w2r1"
)

func TestRunCompletesAllOps(t *testing.T) {
	cfg := quorum.Config{S: 5, T: 1, R: 2, W: 2}
	sim := model.MustNew(cfg, mwabd.New(), model.WithSeed(3), model.WithDelay(model.UniformDelay(1, 60)))
	h := Run(sim, Mix{WritesPerWriter: 5, ReadsPerReader: 5})
	want := cfg.W*5 + cfg.R*5
	if got := len(h.Completed()); got != want {
		t.Fatalf("completed = %d, want %d", got, want)
	}
	if err := h.WellFormed(); err != nil {
		t.Fatal(err)
	}
	if res := atomicity.Check(h); !res.Atomic {
		t.Fatalf("workload history not atomic: %v", res)
	}
}

func TestMeasureSeparatesKinds(t *testing.T) {
	cfg := quorum.Config{S: 5, T: 1, R: 2, W: 2}
	const d = 100
	sim := model.MustNew(cfg, w2r1.New(), model.WithDelay(model.ConstDelay(d)))
	h := Run(sim, Mix{WritesPerWriter: 3, ReadsPerReader: 3})
	stats := Measure(h)
	w, ok := stats[types.OpWrite]
	if !ok || w.Count != 6 {
		t.Fatalf("write stats: %+v", w)
	}
	r, ok := stats[types.OpRead]
	if !ok || r.Count != 6 {
		t.Fatalf("read stats: %+v", r)
	}
	// W2R1: writes are 2 rounds (≈4d), reads 1 round (≈2d).
	// Recorder ticks introduce ±few-unit jitter around k rounds × 2d.
	if w.Mean < 4*d-5 || w.Mean > 4*d+10 {
		t.Errorf("write mean = %.1f, want ≈ %d", w.Mean, 4*d)
	}
	if r.Mean < 2*d-5 || r.Mean > 2*d+10 {
		t.Errorf("read mean = %.1f, want ≈ %d", r.Mean, 2*d)
	}
	if r.Min > r.P50 || r.P50 > r.P99 || r.P99 > r.Max {
		t.Errorf("percentile ordering broken: %+v", r)
	}
	if s := r.String(); s == "" {
		t.Error("empty stats string")
	}
}

func TestMeasureEmptyHistory(t *testing.T) {
	cfg := quorum.Config{S: 3, T: 1, R: 2, W: 2}
	sim := model.MustNew(cfg, mwabd.New())
	stats := Measure(sim.History())
	if len(stats) != 0 {
		t.Fatalf("stats of empty history: %v", stats)
	}
}

func TestMixDefaults(t *testing.T) {
	m := Mix{}
	if m.data(3) != "v3" {
		t.Errorf("default data = %q", m.data(3))
	}
	if m.stagger() != 1 {
		t.Errorf("default stagger = %d", m.stagger())
	}
	m2 := Mix{Data: func(i int) string { return "x" }, Stagger: 7}
	if m2.data(1) != "x" || m2.stagger() != 7 {
		t.Error("custom mix ignored")
	}
}

func TestThroughputFastReadsWin(t *testing.T) {
	run := func(p register.Protocol) float64 {
		cfg := quorum.Config{S: 5, T: 1, R: 2, W: 1}
		sim := model.MustNew(cfg, p, model.WithDelay(model.ConstDelay(50)))
		h := Run(sim, Mix{WritesPerWriter: 2, ReadsPerReader: 10})
		return Throughput(h)
	}
	slow := run(mwabd.New())
	fast := run(w2r1.New())
	if fast <= slow {
		t.Fatalf("fast-read throughput %.2f not above slow-read %.2f", fast, slow)
	}
}

func TestThroughputEmpty(t *testing.T) {
	cfg := quorum.Config{S: 3, T: 1, R: 1, W: 1}
	sim := model.MustNew(cfg, mwabd.New())
	if got := Throughput(sim.History()); got != 0 {
		t.Fatalf("throughput of empty history = %f", got)
	}
}
