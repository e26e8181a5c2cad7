package main

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"runtime"
	"runtime/metrics"
	"syscall"
	"time"

	"fastreg/internal/obs"
)

// passOpts sizes one pass: a discarded warm-up, then the window. round
// numbers the pass among a measured run's rounds; every round draws its
// own schedule from the seed.
type passOpts struct {
	warm, window time.Duration
	round        int
	fleet        fleetOpts
}

// passOut is everything one pass measured. The fleet is closed when
// runPass returns; its capture directory (audited workloads) is not
// removed.
type passOut struct {
	sched *schedule
	setup time.Duration
	res   *passResult

	began    int64         // the window's first instant, ns on the process clock
	cpu      time.Duration // process user+sys CPU over the window
	gcCPU    float64       // GC CPU seconds over the window
	gcCycles uint32
	mallocs  uint64
	retained int64 // live heap after a forced GC, window end minus window start

	hist     []keyHistory
	logDir   string
	epochAt  []int64
	flushAvg float64 // client.flush_batch mean (audited workloads)
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func gcCPUSeconds() float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindFloat64 {
		return 0
	}
	return s[0].Value.Float64()
}

// runPass starts a fleet, preloads it, warms it up and drives the window,
// snapshotting the process around the window only.
func runPass(w workload, seed int64, o passOpts) (*passOut, error) {
	stream := func(name string) string {
		if o.round == 0 {
			return name
		}
		return fmt.Sprintf("%s/%d", name, o.round)
	}
	out := &passOut{sched: buildSchedule(w, seed, stream("window"), o.window)}
	warm := buildSchedule(w, seed, stream("warm"), o.warm)

	// An earlier round's garbage is collected now, not during this set-up.
	runtime.GC()
	t0 := time.Now()
	f, err := startFleet(w, out.sched, o.fleet)
	if err != nil {
		return nil, err
	}
	defer f.close()
	out.setup = time.Since(t0)
	out.logDir = f.logDir
	c, err := newStoreClient(f.store)
	if err != nil {
		return nil, err
	}
	drive(c, w, warm, o.warm, newPassResult(w, warm, o.warm))

	out.res = newPassResult(w, out.sched, o.window)
	var m0, m1, m2 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	gc0 := gcCPUSeconds()
	if o.fleet.tracer != nil {
		o.fleet.tracer.enabled.Store(true)
	}
	out.began = nowNs()
	cpu0 := processCPU()
	drive(c, w, out.sched, o.window, out.res)
	out.cpu = processCPU() - cpu0
	if o.fleet.tracer != nil {
		o.fleet.tracer.enabled.Store(false)
	}
	out.gcCPU = gcCPUSeconds() - gc0
	runtime.ReadMemStats(&m1)
	runtime.GC()
	runtime.ReadMemStats(&m2)
	out.mallocs = m1.Mallocs - m0.Mallocs
	out.gcCycles = m1.NumGC - m0.NumGC
	out.retained = int64(m2.HeapAlloc) - int64(m0.HeapAlloc)

	out.hist = historiesOf(f.store.Backend().Histories())
	if w.audited {
		out.flushAvg = flushBatchMean(f)
	}
	f.close()
	f.epochMu.Lock()
	out.epochAt = f.epochAt
	f.epochMu.Unlock()
	return out, nil
}

// flushBatchMean reads the client's coalesced-flush histogram back
// through the store's public debug surface.
func flushBatchMean(f *fleet) float64 {
	rec := httptest.NewRecorder()
	f.store.DebugHandler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	var snap obs.Snapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		return 0
	}
	return snap.Histograms["client.flush_batch"].Mean
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// maxLateP95 is the validity limit of an open-loop run: with more than a
// twentieth of its arrivals released this late, the generator did not
// offer the load it claims. The limit is on p95, not p99: fleet and
// generator share one thread, and the two or three GC mark phases in a
// window each hold the scheduler back for some 20 ms whatever the store
// does, which is most of the last hundredth.
const maxLateP95 = 3 * time.Millisecond

// runResult is one invocation's outcome: the JSON object printed last.
type runResult struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	// notes go to stderr with the metric table, never into the result.
	notes []string
}

func (r *runResult) set(defs []metricDef, name string, v float64) {
	for _, d := range defs {
		if d.Name == name {
			r.Metrics[name] = metric{Value: v, Unit: d.Unit}
			return
		}
	}
	panic("bench: metric " + name + " is not in the table")
}

// roundWindow is the nominal length of one round's window; a run has as
// many rounds as fit its seconds, and at least minRounds.
const (
	roundWindow = 4 * time.Second
	minRounds   = 3
)

// measure is the untraced run: every end-to-end metric of one workload.
//
// The run's seconds are spent in rounds. Each round sets up a fresh fleet,
// warms it up, drives its own window and is checked; every metric is the
// median over the rounds. Three things come of that. A burst of work on
// the host spoils a round or two, not the run. The store keeps every
// operation's history, so in one long window the heap and with it each GC
// mark phase grow all window long, and whether the larger part of the
// window ran beside a mark phase changes from run to run; a round's heap
// starts small and its short GC cycles spread evenly over it. And set-up
// is sampled once a round, so setup_s is a median too.
func measure(w workload, seed int64, seconds float64, o fleetOpts) (*runResult, error) {
	total := time.Duration(seconds * float64(time.Second))
	n := max(minRounds, int(total/roundWindow))
	window := total / time.Duration(n)
	r := &runResult{Correct: true, Metrics: map[string]metric{}}
	var setups, opsPerS, writeP50, readP50, cpuPerOp, allocs, retained []float64
	completed := 0
	for round := 0; round < n; round++ {
		out, err := runPass(w, seed, passOpts{warm: window / 5, window: window, round: round, fleet: o})
		if err != nil {
			return nil, err
		}
		os.RemoveAll(out.logDir) // the measured rounds' logs are not audited
		res := out.res
		ops := float64(max(res.completed, 1))
		setups = append(setups, out.setup.Seconds())
		opsPerS = append(opsPerS, ops/res.elapsed.Seconds())
		writeP50 = append(writeP50, quantileUs(res.latencies(true), 0.50))
		readP50 = append(readP50, quantileUs(res.latencies(false), 0.50))
		cpuPerOp = append(cpuPerOp, us(float64(out.cpu))/ops)
		allocs = append(allocs, float64(out.mallocs)/ops)
		retained = append(retained, float64(out.retained)/ops)
		r.Attempted += res.scheduled
		r.Failed += res.scheduled - res.completed
		completed += res.completed

		gate := sampleCheck(out.hist, total/time.Duration(4*n))
		notes := passNotes(w, out, gate)
		if round > 0 {
			notes = notes[1:] // the fleet's description is every round's
		}
		r.notes = append(append(r.notes, notes...), lateNotes(res)...)
		if !gate.clean {
			r.Correct = false
			r.notes = append(r.notes, "VIOLATION: "+gate.violation)
		}
	}
	r.set(endToEnd, "setup_s", median(setups))
	r.set(endToEnd, "ops_per_s", median(opsPerS))
	r.set(endToEnd, "write_p50_us", median(writeP50))
	r.set(endToEnd, "read_p50_us", median(readP50))
	r.set(endToEnd, "cpu_us_per_op", median(cpuPerOp))
	r.set(endToEnd, "allocs_per_op", median(allocs))
	r.set(endToEnd, "retained_b_per_op", median(retained))
	r.set(endToEnd, "ok_frac", float64(completed)/float64(max(r.Attempted, 1)))
	r.notes = append(r.notes, fmt.Sprintf("rounds: %d of %.1fs; write_p50_us %.0f; read_p50_us %.0f; cpu_us_per_op %.1f; ops_per_s %.0f; setup_s %.3f",
		n, window.Seconds(), writeP50, readP50, cpuPerOp, opsPerS, setups))
	return r, nil
}

// lateNotes reports how late an open loop's generator ran, and marks the
// run invalid past maxLateP95.
func lateNotes(res *passResult) []string {
	if len(res.late) == 0 {
		return nil
	}
	p95 := quantileUs(res.late, 0.95)
	notes := []string{fmt.Sprintf("generator: released p50 %.0f us, p95 %.0f us, p99 %.0f us after due (tick %v); backlog at most %d",
		quantileUs(res.late, 0.50), p95, quantileUs(res.late, 0.99), releaseTick, res.backlogMax)}
	if limit := us(float64(maxLateP95)); p95 > limit {
		notes = append(notes, fmt.Sprintf("INVALID: generator ran late (p95 %.0f us > %.0f us)", p95, limit))
	}
	return notes
}

func passNotes(w workload, out *passOut, gate gateResult) []string {
	res := out.res
	loop := fmt.Sprintf("closed loop, %d identities", w.cfg.Writers+w.cfg.Readers)
	if w.open {
		loop = fmt.Sprintf("open loop, %.0f ops/s offered", w.rate)
	}
	backend := "in-process backend"
	if w.tcp {
		backend = "loopback TCP, zero injected delay: latency is processor + kernel time"
	}
	verdict := "CLEAN"
	if !gate.clean {
		verdict = "VIOLATED"
	}
	return []string{
		fmt.Sprintf("%s: %s S=%d t=%d W=%d R=%d, %s, %s, GOMAXPROCS=%d", w.name, w.proto,
			w.cfg.Servers, w.cfg.MaxCrashes, w.cfg.Writers, w.cfg.Readers, loop, backend, runtime.GOMAXPROCS(0)),
		fmt.Sprintf("window %.1fs: %d scheduled, %d completed, %d failed; schedule %s", res.elapsed.Seconds(),
			res.scheduled, res.completed, res.scheduled-res.completed, out.sched.hash()[:12]),
		fmt.Sprintf("atomicity %s over %d keys, %d of %d ops (%.1f%%), %.2fs", verdict, gate.keys, gate.ops,
			gate.totalOps, 100*gate.coverFrac(), gate.spent.Seconds()),
	}
}
