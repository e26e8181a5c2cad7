// Package obs is the fleet's observability core: sharded atomic
// counters, gauges and log-scale latency histograms with percentile
// extraction, a named-metric registry with a JSON snapshot, and a
// slow-operation round tracer — all stdlib-only and allocation-free on
// the recording path.
//
// The disabled state is structural, not a flag check deep inside: every
// constructor accepts a nil *Registry and returns nil metrics, and every
// recording method is a no-op on a nil receiver. A runtime built without
// observability therefore carries nil pointers and pays one predictable
// branch per would-be record — nothing measurable — while a runtime
// built with it pays one or two uncontended atomic adds per event.
// (internal/obs's benchmark pair locks that contract in.)
//
// Metric names are dotted paths ("client.W2R2.write.latency_ns",
// "server.batch_fanin"). The TCP and in-process backends run the same
// transport.Client and Server and so register the same names, which is
// what makes the two backends' numbers directly comparable.
package obs

import (
	"sort"
	"sync"
)

// Registry is a process's named-metric namespace: get-or-create typed
// metrics by name, snapshot them all for /metrics. A nil *Registry is
// the disabled registry — every method is safe and returns nil/zero.
//
//lint:nildisabled
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	gaugeFuncs map[string]func() int64
	hists      map[string]*Histogram
}

// New creates an empty registry.
func New() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		gaugeFuncs: make(map[string]func() int64),
		hists:      make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use; nil on a
// nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use; nil on a nil
// registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// GaugeFunc registers a pull gauge: fn is evaluated at snapshot time
// only, so values derivable on demand (queue depth, key count) cost the
// hot path nothing at all. fn must be safe to call from any goroutine.
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gaugeFuncs[name] = fn
}

// Histogram returns the named histogram, creating it on first use; nil
// on a nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// HistogramValue is a histogram rendered for the snapshot: count, exact
// sum, and the standard percentile ladder.
type HistogramValue struct {
	Count uint64  `json:"count"`
	Sum   int64   `json:"sum"`
	Mean  float64 `json:"mean"`
	P50   int64   `json:"p50"`
	P95   int64   `json:"p95"`
	P99   int64   `json:"p99"`
	Max   int64   `json:"max"`
}

// SnapshotOf renders one histogram snapshot into its reporting form.
func SnapshotOf(s HistogramSnapshot) HistogramValue {
	return HistogramValue{
		Count: s.Count,
		Sum:   s.Sum,
		Mean:  s.Mean(),
		P50:   s.Quantile(0.50),
		P95:   s.Quantile(0.95),
		P99:   s.Quantile(0.99),
		Max:   s.Max(),
	}
}

// Snapshot is the registry's point-in-time state — what /metrics serves.
// Pull gauges are evaluated here; panics in a gauge func are the
// registrant's bug and deliberately not recovered.
type Snapshot struct {
	Counters   map[string]int64          `json:"counters"`
	Gauges     map[string]int64          `json:"gauges"`
	Histograms map[string]HistogramValue `json:"histograms"`
}

// Snapshot captures every registered metric. Safe on a nil registry
// (returns empty maps, so the JSON shape is stable either way).
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   make(map[string]int64),
		Gauges:     make(map[string]int64),
		Histograms: make(map[string]HistogramValue),
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	gaugeFuncs := make(map[string]func() int64, len(r.gaugeFuncs))
	for k, v := range r.gaugeFuncs {
		gaugeFuncs[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()
	// Metric reads happen outside the registry lock: gauge funcs may take
	// their own locks (queue mutexes), and nothing here needs atomicity
	// across metrics.
	for k, c := range counters {
		s.Counters[k] = c.Value()
	}
	for k, g := range gauges {
		s.Gauges[k] = g.Value()
	}
	for k, fn := range gaugeFuncs {
		s.Gauges[k] = fn()
	}
	for k, h := range hists {
		s.Histograms[k] = SnapshotOf(h.Snapshot())
	}
	return s
}

// Names returns every registered metric name, sorted (tests, tooling).
func (r *Registry) Names() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []string
	for k := range r.counters {
		out = append(out, k)
	}
	for k := range r.gauges {
		out = append(out, k)
	}
	for k := range r.gaugeFuncs {
		out = append(out, k)
	}
	for k := range r.hists {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// OpMetrics is the client-side operation metric set the round engine
// (transport.Client) records into — per-protocol operation latency split by kind, rounds per
// operation, retries, and completed/failed counters. A nil *OpMetrics is
// the disabled set; every method no-ops.
//
//lint:nildisabled
type OpMetrics struct {
	WriteLatency *Histogram // ns, successful and failed writes alike
	ReadLatency  *Histogram // ns
	Rounds       *Histogram // round trips per completed operation
	Retries      *Counter   // re-send ticks while waiting for a quorum
	Ops          *Counter   // operations completed successfully
	Failed       *Counter   // operations failed (timeout, protocol error)
}

// NewOpMetrics registers the operation metric set under prefix
// (canonically "client.<protocol>"); nil registry → nil set.
func NewOpMetrics(r *Registry, prefix string) *OpMetrics {
	if r == nil {
		return nil
	}
	return &OpMetrics{
		WriteLatency: r.Histogram(prefix + ".write.latency_ns"),
		ReadLatency:  r.Histogram(prefix + ".read.latency_ns"),
		Rounds:       r.Histogram(prefix + ".rounds"),
		Retries:      r.Counter(prefix + ".retries"),
		Ops:          r.Counter(prefix + ".ops"),
		Failed:       r.Counter(prefix + ".failed"),
	}
}

// Op records one finished operation.
func (m *OpMetrics) Op(write bool, latencyNs int64, rounds int, failed bool) {
	if m == nil {
		return
	}
	if write {
		m.WriteLatency.Observe(latencyNs)
	} else {
		m.ReadLatency.Observe(latencyNs)
	}
	m.Rounds.Observe(int64(rounds))
	if failed {
		m.Failed.Add(1)
	} else {
		m.Ops.Add(1)
	}
}

// Retry counts one re-send attempt.
func (m *OpMetrics) Retry() {
	if m == nil {
		return
	}
	m.Retries.Add(1)
}
