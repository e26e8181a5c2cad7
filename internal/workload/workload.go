// Package workload drives clusters with closed-loop client sessions and
// measures operation latency in virtual time. It is the engine behind the
// Table 1 and Fig 2 harnesses: latency in this model is exactly
// (#round-trips) × RTT plus delay jitter, which is the quantity the paper
// reasons about.
package workload

import (
	"fmt"
	"math"
	"sort"

	"fastreg/internal/history"
	"fastreg/internal/model"
	"fastreg/internal/types"
	"fastreg/internal/vclock"
)

// Mix describes a closed-loop workload: every writer issues WritesPerWriter
// writes and every reader ReadsPerReader reads, back to back, all sessions
// starting staggered by Stagger.
type Mix struct {
	WritesPerWriter int
	ReadsPerReader  int
	// Data generates write payloads (default "v<i>").
	Data func(i int) string
	// Stagger separates session starts (default 1 tick).
	Stagger vclock.Duration
}

func (m Mix) data(i int) string {
	if m.Data != nil {
		return m.Data(i)
	}
	return fmt.Sprintf("v%d", i)
}

func (m Mix) stagger() vclock.Duration {
	if m.Stagger <= 0 {
		return 1
	}
	return m.Stagger
}

// Run drives the mix on the simulator to completion and returns the
// resulting history. Operations that cannot complete (quorum loss) stay
// pending in the history.
func Run(sim *model.Sim, mix Mix) history.History {
	cfg := sim.Config()
	start := sim.Now()
	session := 0
	var spawn func(client int, write bool, n, i int)
	spawn = func(client int, write bool, n, i int) {
		if n == 0 {
			return
		}
		op := sim.Reader(client).ReadOp()
		if write {
			op = sim.Writer(client).WriteOp(mix.data(i))
		}
		at := sim.Now() + 1
		if sim.Now() == start {
			at = start + vclock.Time(session)*vclock.Time(mix.stagger())
		}
		sim.InvokeAt(at, op, func(types.Value, error) { spawn(client, write, n-1, i+1) })
	}
	for w := 1; w <= cfg.W; w++ {
		spawn(w, true, mix.WritesPerWriter, w*1000)
		session++
	}
	for r := 1; r <= cfg.R; r++ {
		spawn(r, false, mix.ReadsPerReader, 0)
		session++
	}
	sim.Run()
	return sim.History()
}

// LatencyStats summarizes operation latencies (virtual time units).
type LatencyStats struct {
	Count          int
	Min, Max, Mean float64
	P50, P99       float64
}

// String renders the stats compactly.
func (s LatencyStats) String() string {
	return fmt.Sprintf("n=%d mean=%.1f p50=%.1f p99=%.1f min=%.1f max=%.1f",
		s.Count, s.Mean, s.P50, s.P99, s.Min, s.Max)
}

// Throughput returns completed operations per 1000 virtual time units —
// comparable across protocols at a fixed delay model (fast reads double
// read throughput in closed-loop sessions).
func Throughput(h history.History) float64 {
	ops := h.Completed()
	if len(ops) == 0 {
		return 0
	}
	var first, last vclock.Time
	first = ops[0].Invoke
	for _, o := range ops {
		if o.Invoke < first {
			first = o.Invoke
		}
		if o.Response > last {
			last = o.Response
		}
	}
	span := float64(last - first)
	if span <= 0 {
		return 0
	}
	return float64(len(ops)) / span * 1000
}

// Measure computes per-kind latency statistics over the completed
// operations of a history.
func Measure(h history.History) map[types.OpKind]LatencyStats {
	samples := make(map[types.OpKind][]float64)
	for _, o := range h.Completed() {
		samples[o.Kind] = append(samples[o.Kind], float64(o.Response-o.Invoke))
	}
	out := make(map[types.OpKind]LatencyStats, len(samples))
	for k, xs := range samples {
		out[k] = summarize(xs)
	}
	return out
}

func summarize(xs []float64) LatencyStats {
	if len(xs) == 0 {
		return LatencyStats{}
	}
	sort.Float64s(xs)
	s := LatencyStats{
		Count: len(xs),
		Min:   xs[0],
		Max:   xs[len(xs)-1],
		P50:   percentile(xs, 0.50),
		P99:   percentile(xs, 0.99),
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	s.Mean = sum / float64(len(xs))
	return s
}

func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
