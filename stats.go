package fastreg

import (
	"net/http"
	"time"

	"fastreg/internal/keyreg"
	"fastreg/internal/obs"
)

// LatencyStats summarizes one operation-latency distribution: the count,
// exact mean, the percentile ladder and the (bucketed, ~12.5%-accurate)
// maximum, all as durations.
type LatencyStats struct {
	Count uint64
	Mean  time.Duration
	P50   time.Duration
	P95   time.Duration
	P99   time.Duration
	Max   time.Duration
}

func latencyStatsOf(s obs.HistogramSnapshot) LatencyStats {
	return LatencyStats{
		Count: s.Count,
		Mean:  time.Duration(s.Mean()),
		P50:   time.Duration(s.Quantile(0.50)),
		P95:   time.Duration(s.Quantile(0.95)),
		P99:   time.Duration(s.Quantile(0.99)),
		Max:   time.Duration(s.Max()),
	}
}

// KeyStats is one key's workload profile: completed operations by kind
// and how many operations began while another was already in flight on
// the key — the contention signal adaptive protocol selection needs.
type KeyStats struct {
	Key       string
	Reads     int64
	Writes    int64
	Contended int64
}

// Stats is a Store's point-in-time observability snapshot. Enabled
// reports whether the store was opened WithMetrics; without it the
// latency fields stay zero but Keys is still populated — the per-key
// workload counters are maintained unconditionally.
type Stats struct {
	Enabled bool

	// Writes, Reads and their merge Ops summarize operation latency.
	Writes LatencyStats
	Reads  LatencyStats
	Ops    LatencyStats

	// Retries counts re-send ticks while operations waited for a reply
	// quorum.
	Retries int64
	// OpsOK and OpsFailed count completed and failed operations.
	OpsOK     int64
	OpsFailed int64

	// SlowOps counts operations over the WithSlowOpTrace threshold.
	SlowOps int64

	// Keys holds every live key's workload profile, sorted by key.
	Keys []KeyStats
}

// Stats snapshots the store's metrics. The latency and counter fields
// need WithMetrics (Enabled reports whether they are live); the per-key
// profiles are always collected. Safe to call concurrently with
// operations.
func (s *Store) Stats() Stats {
	var out Stats
	b := s.b
	if m, ok := b.(interface{ Metrics() *obs.OpMetrics }); ok {
		if om := m.Metrics(); om != nil {
			out.Enabled = true
			ws := om.WriteLatency.Snapshot()
			rs := om.ReadLatency.Snapshot()
			out.Writes = latencyStatsOf(ws)
			out.Reads = latencyStatsOf(rs)
			ws.Merge(rs)
			out.Ops = latencyStatsOf(ws)
			out.Retries = om.Retries.Value()
			out.OpsOK = om.Ops.Value()
			out.OpsFailed = om.Failed.Value()
		}
	}
	if t, ok := b.(interface{ Tracer() *obs.Tracer }); ok {
		out.SlowOps = t.Tracer().SlowCount()
	}
	if k, ok := b.(interface{ KeyStats() []keyreg.KeyStats }); ok {
		ks := k.KeyStats()
		out.Keys = make([]KeyStats, len(ks))
		for i, st := range ks {
			out.Keys[i] = KeyStats{Key: st.Key, Reads: st.Reads, Writes: st.Writes, Contended: st.Contended}
		}
	}
	return out
}

// DebugHandler returns the store's debug HTTP surface — /metrics (the
// registry snapshot as JSON), /healthz, /debug/slowops and the standard
// /debug/pprof handlers — the same endpoint shape every fleet binary
// mounts behind -debug-addr. It works on any store: without WithMetrics
// the metric maps are simply empty.
func (s *Store) DebugHandler() http.Handler {
	return obs.Handler(s.obsReg, s.tracer)
}
