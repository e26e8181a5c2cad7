package fastreg

import (
	"fmt"
	"strings"

	"fastreg/internal/atomicity"
	"fastreg/internal/consistency"
	"fastreg/internal/model"
	"fastreg/internal/types"
	"fastreg/internal/vclock"
	"fastreg/internal/workload"
)

// SimOptions configures a deterministic Simulation.
type SimOptions struct {
	// Seed drives every random choice; equal seeds give identical
	// executions (default 1).
	Seed int64
	// MinDelay/MaxDelay bound the one-way message delay in virtual time
	// units (default 10/10, i.e. constant).
	MinDelay, MaxDelay int
	// ReaderSkips maps reader index → server index whose messages are
	// delayed past the end of the execution (the paper's "skip"); at most
	// MaxCrashes skips per client keep operations live.
	ReaderSkips map[int]int
}

func (o SimOptions) delay() model.DelayFn {
	lo, hi := o.MinDelay, o.MaxDelay
	if lo <= 0 {
		lo = 10
	}
	if hi < lo {
		hi = lo
	}
	var d model.DelayFn
	if lo == hi {
		d = model.ConstDelay(vclock.Duration(lo))
	} else {
		d = model.UniformDelay(vclock.Duration(lo), vclock.Duration(hi))
	}
	for reader, server := range o.ReaderSkips {
		d = model.Skip(d, types.Reader(reader), types.Server(server))
	}
	return d
}

// Latency summarizes operation latencies in virtual time units.
type Latency struct {
	Count    int
	Mean     float64
	P50, P99 float64
}

func latencyOf(s workload.LatencyStats) Latency {
	return Latency{Count: s.Count, Mean: s.Mean, P50: s.P50, P99: s.P99}
}

// String renders the latency summary.
func (l Latency) String() string {
	return fmt.Sprintf("n=%d mean=%.1f p50=%.1f p99=%.1f", l.Count, l.Mean, l.P50, l.P99)
}

// Consistency quantifies how far a history deviates from atomicity — the
// paper's Section 7 future-work direction, after the authors' 2-atomicity
// line of work. KAtomicity = 1 means every read returned the freshest
// completed value.
type Consistency struct {
	StaleReads   int
	MaxStaleness int
	KAtomicity   int
	Inversions   int
	StaleRate    float64
}

// String renders the consistency summary.
func (c Consistency) String() string {
	return fmt.Sprintf("k-atomicity=%d stale=%d (%.1f%%) inversions=%d",
		c.KAtomicity, c.StaleReads, 100*c.StaleRate, c.Inversions)
}

// WorkloadResult is the outcome of Simulation.Run.
type WorkloadResult struct {
	WriteLatency Latency
	ReadLatency  Latency
	Check        CheckResult
	// Consistency quantifies the deviation when Check is not atomic (and
	// confirms KAtomicity = 1 when it is).
	Consistency Consistency
	// Pending counts operations that could not complete (quorum loss).
	Pending int
}

// Simulation is a deterministic discrete-event run of a cluster under a
// closed-loop workload — the environment for latency and adversarial
// experiments. Unlike a Store, time is virtual: latency numbers are exact
// functions of round-trip counts and configured delays.
type Simulation struct {
	sim *model.Sim
}

// NewSimulation builds the simulated cluster.
func NewSimulation(cfg Config, p Protocol, opts SimOptions) (*Simulation, error) {
	impl, err := p.impl()
	if err != nil {
		return nil, err
	}
	seed := opts.Seed
	if seed == 0 {
		seed = 1
	}
	sim, err := model.New(cfg.internal(), impl, model.WithSeed(seed), model.WithDelay(opts.delay()))
	if err != nil {
		return nil, err
	}
	return &Simulation{sim: sim}, nil
}

// CrashServerAt schedules server s_i to crash at the given virtual time.
func (s *Simulation) CrashServerAt(i int, at int64) {
	s.sim.CrashServer(types.Server(i), vclock.Time(at))
}

// Run drives a closed-loop workload (every writer issues writesPerWriter
// writes, every reader readsPerReader reads) to completion and returns
// latency and atomicity results.
func (s *Simulation) Run(writesPerWriter, readsPerReader int) WorkloadResult {
	h := workload.Run(s.sim, workload.Mix{WritesPerWriter: writesPerWriter, ReadsPerReader: readsPerReader})
	stats := workload.Measure(h)
	res := atomicity.Check(h)
	cons := consistency.Analyze(h)
	return WorkloadResult{
		WriteLatency: latencyOf(stats[types.OpWrite]),
		ReadLatency:  latencyOf(stats[types.OpRead]),
		Pending:      len(h.Pending()),
		Check: CheckResult{
			Atomic:      res.Atomic,
			Explanation: res.String(),
			Operations:  len(h.Completed()),
		},
		Consistency: Consistency{
			StaleReads:   cons.StaleReads,
			MaxStaleness: cons.MaxStaleness,
			KAtomicity:   cons.KAtomicity,
			Inversions:   cons.Inversions,
			StaleRate:    cons.StaleRate,
		},
	}
}

// Transcript returns the recorded execution, one operation per line — the
// Fig 1 message-flow view at operation granularity.
func (s *Simulation) Transcript() string {
	return strings.TrimRight(s.sim.History().String(), "\n")
}
