// Package loadgen is the open-loop load generator for live stores: a
// seeded arrival process (Poisson, with linear rate ramps) over a
// zipfian key population, dispatched through pools of fastreg session
// handles — the workload shape a production fleet actually sees, where
// request arrival does not wait for request completion.
//
// Open-loop is the point. internal/workload's simulator harness is
// closed-loop — each virtual client issues its next operation when the
// previous one returns, so a slow system quietly slows its own offered
// load and latency numbers flatter the store. Here the arrival schedule
// is fixed by the seed alone: when every identity of a pool is busy the
// arrival is shed (counted, never queued), so overload shows up as drops
// and tail latency instead of disappearing into the harness.
//
// Determinism: every random draw — interarrival gaps, operation kind,
// key choice — comes from one rand.Rand owned by the scheduler
// goroutine and seeded from Config.Seed, so the same seed replays the
// identical operation schedule; only completion timings differ run to
// run. Latency is reported through internal/obs histograms private to
// the run's Report.
package loadgen

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fastreg"
	"fastreg/internal/obs"
)

// Config shapes one generator run.
type Config struct {
	// Seed drives every random choice; same seed, same schedule.
	Seed int64

	// Writers and Readers are the 1-based identities the run drives,
	// each within the store's cluster shape. Processes sharing a fleet
	// split the shape's identities between them.
	Writers, Readers []int

	// Keys is the key population size; KeyPrefix namespaces it.
	Keys      int
	KeyPrefix string

	// ZipfS skews key popularity (> 1; higher = hotter head). Zero
	// defaults to 1.2, the classic web-cache skew.
	ZipfS float64

	// Rate is the offered load in operations/second at t=0; EndRate, if
	// positive, ramps the rate linearly to that value at Duration — the
	// knob that walks a scenario across the knee.
	Rate    float64
	EndRate float64

	// Duration bounds the arrival schedule (completions may trail it).
	Duration time.Duration

	// WriteFrac is the probability an arrival is a write.
	WriteFrac float64

	// ValueSize pads written values to this many bytes.
	ValueSize int

	// OpTimeout bounds each dispatched operation (default 10s).
	OpTimeout time.Duration
}

func (c *Config) withDefaults() (Config, error) {
	out := *c
	if len(out.Writers) == 0 || len(out.Readers) == 0 {
		return out, errors.New("loadgen: need at least one writer and one reader identity")
	}
	if out.Keys < 1 {
		return out, errors.New("loadgen: need at least one key")
	}
	if out.Rate <= 0 {
		return out, errors.New("loadgen: rate must be positive")
	}
	if out.Duration <= 0 {
		return out, errors.New("loadgen: duration must be positive")
	}
	if out.WriteFrac < 0 || out.WriteFrac > 1 {
		return out, errors.New("loadgen: write_frac must be in [0,1]")
	}
	if out.ZipfS == 0 {
		out.ZipfS = 1.2
	}
	if out.ZipfS <= 1 {
		return out, errors.New("loadgen: zipf skew must be > 1")
	}
	if out.OpTimeout <= 0 {
		out.OpTimeout = 10 * time.Second
	}
	if out.KeyPrefix == "" {
		out.KeyPrefix = "k"
	}
	return out, nil
}

// Report is one run's outcome: schedule accounting plus the latency
// distributions (nanoseconds, measured from each operation's scheduled
// arrival instant, so dispatch skew counts against the store — the
// open-loop convention).
type Report struct {
	Elapsed time.Duration

	Scheduled int64 // arrivals the schedule produced
	Completed int64 // operations that returned a result
	Failed    int64 // operations that returned an error (timeouts included)
	Dropped   int64 // arrivals shed because every identity was busy

	Writes, Reads int64

	Write  obs.HistogramValue // write latency percentiles
	Read   obs.HistogramValue // read latency percentiles
	Merged obs.HistogramValue // both kinds combined

	// AllocsPerOp is the process's heap allocation delta across the run
	// divided by completed operations — harness included, so it is an
	// upper bound on the store's own cost.
	AllocsPerOp float64
}

// OpsPerSec is completed operations over the elapsed wall time.
func (r *Report) OpsPerSec() float64 {
	if r.Elapsed <= 0 {
		return 0
	}
	return float64(r.Completed) / r.Elapsed.Seconds()
}

// String renders the one-line summary scenario runners print.
func (r *Report) String() string {
	return fmt.Sprintf("%d/%d ops in %v (%.0f ops/sec, %d writes %d reads, %d failed, %d shed; p50 %v p99 %v)",
		r.Completed, r.Scheduled, r.Elapsed.Round(time.Millisecond), r.OpsPerSec(),
		r.Writes, r.Reads, r.Failed, r.Dropped,
		time.Duration(r.Merged.P50), time.Duration(r.Merged.P99))
}

// Run drives the store with cfg's open-loop schedule until the schedule
// ends or ctx cancels, and blocks for in-flight operations to settle.
// An identity outside the store's cluster shape fails the run before
// its first arrival.
func Run(ctx context.Context, store *fastreg.Store, cfg Config) (*Report, error) {
	cfg, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	g := &gen{
		cfg:     cfg,
		writeLa: new(obs.Histogram),
		readLa:  new(obs.Histogram),
		writers: make(chan *fastreg.Writer, len(cfg.Writers)),
		readers: make(chan *fastreg.Reader, len(cfg.Readers)),
	}
	for _, i := range cfg.Writers {
		w, err := store.Writer(i)
		if err != nil {
			return nil, err
		}
		g.writers <- w
	}
	for _, i := range cfg.Readers {
		r, err := store.Reader(i)
		if err != nil {
			return nil, err
		}
		g.readers <- r
	}

	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	g.schedule(ctx, t0)
	g.wg.Wait()
	elapsed := time.Since(t0)
	runtime.ReadMemStats(&ms1)

	rep := &Report{
		Elapsed:   elapsed,
		Scheduled: g.scheduled,
		Dropped:   g.dropped,
		Completed: g.completed.Load(),
		Failed:    g.failed.Load(),
		Writes:    g.writes.Load(),
		Reads:     g.reads.Load(),
	}
	ws, rs := g.writeLa.Snapshot(), g.readLa.Snapshot()
	rep.Write = obs.SnapshotOf(ws)
	rep.Read = obs.SnapshotOf(rs)
	ws.Merge(rs)
	rep.Merged = obs.SnapshotOf(ws)
	if rep.Completed > 0 {
		rep.AllocsPerOp = float64(ms1.Mallocs-ms0.Mallocs) / float64(rep.Completed)
	}
	return rep, nil
}

// gen is one run's state. The schedule fields belong to the scheduler
// goroutine alone; the atomics are shared with the dispatched workers.
type gen struct {
	cfg Config

	writeLa, readLa *obs.Histogram

	writers chan *fastreg.Writer
	readers chan *fastreg.Reader

	scheduled, dropped int64 // scheduler goroutine only
	completed, failed  atomic.Int64
	writes, reads      atomic.Int64

	wg sync.WaitGroup
}

// schedule runs the seeded arrival process: exponential interarrival
// gaps at the (possibly ramping) instantaneous rate, zipfian keys, a
// Bernoulli kind choice — all from one RNG, in one goroutine, so the
// draw sequence is a pure function of the seed.
func (g *gen) schedule(ctx context.Context, t0 time.Time) {
	rng := rand.New(rand.NewSource(g.cfg.Seed))
	zipf := rand.NewZipf(rng, g.cfg.ZipfS, 1, uint64(g.cfg.Keys-1))
	var at time.Duration // virtual arrival instant
	var seq int64
	for {
		rate := g.cfg.Rate
		if g.cfg.EndRate > 0 {
			frac := float64(at) / float64(g.cfg.Duration)
			rate += (g.cfg.EndRate - g.cfg.Rate) * frac
		}
		at += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
		if at >= g.cfg.Duration {
			return
		}
		isWrite := rng.Float64() < g.cfg.WriteFrac
		key := fmt.Sprintf("%s%04d", g.cfg.KeyPrefix, zipf.Uint64())
		seq++
		val := ""
		if isWrite {
			val = g.value(seq)
		}
		// Sleep to the arrival instant (absolute against t0, so sleep
		// jitter never accumulates into schedule drift).
		if wait := time.Until(t0.Add(at)); wait > 0 {
			select {
			case <-time.After(wait):
			case <-ctx.Done():
				return
			}
		}
		g.scheduled++
		g.dispatch(ctx, t0.Add(at), isWrite, key, val)
	}
}

// dispatch hands one arrival to a free identity, or sheds it — the
// scheduler never blocks on the store, which is the open-loop contract.
func (g *gen) dispatch(ctx context.Context, arrival time.Time, isWrite bool, key, val string) {
	if isWrite {
		select {
		case w := <-g.writers:
			g.wg.Add(1)
			go g.runWrite(ctx, w, arrival, key, val)
			return
		default:
		}
	} else {
		select {
		case r := <-g.readers:
			g.wg.Add(1)
			go g.runRead(ctx, r, arrival, key)
			return
		default:
		}
	}
	g.dropped++
}

func (g *gen) runWrite(ctx context.Context, w *fastreg.Writer, arrival time.Time, key, val string) {
	defer g.wg.Done()
	opCtx, cancel := context.WithTimeout(ctx, g.cfg.OpTimeout)
	_, err := w.Put(opCtx, key, val)
	cancel()
	g.finish(err, true, arrival)
	g.writers <- w
}

func (g *gen) runRead(ctx context.Context, r *fastreg.Reader, arrival time.Time, key string) {
	defer g.wg.Done()
	opCtx, cancel := context.WithTimeout(ctx, g.cfg.OpTimeout)
	_, _, _, err := r.Get(opCtx, key)
	cancel()
	g.finish(err, false, arrival)
	g.readers <- r
}

func (g *gen) finish(err error, isWrite bool, arrival time.Time) {
	if err != nil {
		g.failed.Add(1)
		return
	}
	g.completed.Add(1)
	lat := time.Since(arrival).Nanoseconds()
	if isWrite {
		g.writes.Add(1)
		g.writeLa.Observe(lat)
	} else {
		g.reads.Add(1)
		g.readLa.Observe(lat)
	}
}

// value pads the sequence stamp to ValueSize bytes.
func (g *gen) value(seq int64) string {
	v := fmt.Sprintf("v%d", seq)
	if pad := g.cfg.ValueSize - len(v); pad > 0 {
		v += strings.Repeat("x", pad)
	}
	return v
}

// RateAt exposes the ramp for schedule printouts: the instantaneous
// offered rate at virtual instant t.
func (c Config) RateAt(t time.Duration) float64 {
	if c.EndRate <= 0 || c.Duration <= 0 {
		return c.Rate
	}
	frac := math.Min(1, float64(t)/float64(c.Duration))
	return c.Rate + (c.EndRate-c.Rate)*frac
}
