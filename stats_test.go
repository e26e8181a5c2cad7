// Public observability surface: Stats, DebugHandler and the
// WithMetrics/WithSlowOpTrace options, on both backends.
package fastreg_test

import (
	"context"
	"encoding/json"
	"net/http/httptest"
	"testing"
	"time"

	"fastreg"
	"fastreg/internal/quorum"
)

func driveOps(t *testing.T, s *fastreg.Store) {
	t.Helper()
	ctx := context.Background()
	w, _ := s.Writer(1)
	r, _ := s.Reader(1)
	for i := 0; i < 20; i++ {
		if _, err := w.Put(ctx, "stats-key", "v"); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := r.Get(ctx, "stats-key"); err != nil {
			t.Fatal(err)
		}
	}
}

func TestStoreStatsInProcess(t *testing.T) {
	s, err := fastreg.Open(fastreg.DefaultConfig(), fastreg.W2R2, fastreg.WithMetrics())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	driveOps(t, s)

	st := s.Stats()
	if !st.Enabled {
		t.Fatal("Stats.Enabled must be true with WithMetrics")
	}
	if st.Writes.Count != 20 || st.Reads.Count != 20 || st.Ops.Count != 40 {
		t.Fatalf("counts: writes=%d reads=%d ops=%d", st.Writes.Count, st.Reads.Count, st.Ops.Count)
	}
	if st.OpsOK != 40 || st.OpsFailed != 0 {
		t.Fatalf("OpsOK=%d OpsFailed=%d", st.OpsOK, st.OpsFailed)
	}
	if st.Writes.P99 <= 0 || st.Ops.P50 <= 0 || st.Ops.Mean <= 0 {
		t.Fatalf("percentiles must be populated: %+v", st.Ops)
	}
	if len(st.Keys) != 1 || st.Keys[0].Key != "stats-key" ||
		st.Keys[0].Reads != 20 || st.Keys[0].Writes != 20 {
		t.Fatalf("KeyStats: %+v", st.Keys)
	}
}

func TestStoreStatsDisabled(t *testing.T) {
	s, err := fastreg.Open(fastreg.DefaultConfig(), fastreg.W2R2)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	driveOps(t, s)

	st := s.Stats()
	if st.Enabled {
		t.Fatal("Stats.Enabled must be false without WithMetrics")
	}
	if st.Ops.Count != 0 {
		t.Fatalf("latency stats must stay zero when disabled: %+v", st.Ops)
	}
	// The per-key workload profile is collected unconditionally.
	if len(st.Keys) != 1 || st.Keys[0].Writes != 20 || st.Keys[0].Reads != 20 {
		t.Fatalf("KeyStats must be populated without metrics: %+v", st.Keys)
	}
}

func TestStoreStatsAndDebugHandlerTCP(t *testing.T) {
	cfg := fastreg.DefaultConfig()
	qcfg := quorum.Config{S: cfg.Servers, T: cfg.MaxCrashes, R: cfg.Readers, W: cfg.Writers}
	_, addrs := bootTCPFleet(t, qcfg)
	s, err := fastreg.Open(cfg, fastreg.W2R2,
		fastreg.WithTCP(addrs...), fastreg.WithMetrics(), fastreg.WithSlowOpTrace(time.Hour))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	driveOps(t, s)

	st := s.Stats()
	if !st.Enabled || st.Ops.Count != 40 || st.Ops.P95 <= 0 {
		t.Fatalf("TCP stats: %+v", st.Ops)
	}
	if st.SlowOps != 0 {
		t.Fatalf("no op should cross an hour threshold, got %d", st.SlowOps)
	}

	srv := httptest.NewServer(s.DebugHandler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap struct {
		Counters   map[string]int64           `json:"counters"`
		Histograms map[string]json.RawMessage `json:"histograms"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["client.W2R2.ops"] != 40 {
		t.Fatalf("client.W2R2.ops = %d, want 40 (counters: %v)", snap.Counters["client.W2R2.ops"], snap.Counters)
	}
	if _, ok := snap.Histograms["client.W2R2.write.latency_ns"]; !ok {
		t.Fatal("write latency histogram missing from /metrics")
	}
}

// TestObsOptionValidation: slow-op tracing runs on both backends (here
// in-process) and needs a positive threshold.
func TestObsOptionValidation(t *testing.T) {
	cfg := fastreg.DefaultConfig()
	if s, err := fastreg.Open(cfg, fastreg.W2R2, fastreg.WithSlowOpTrace(-time.Second)); err == nil {
		s.Close()
		t.Fatal("a negative WithSlowOpTrace threshold must be rejected")
	}
	s, err := fastreg.Open(cfg, fastreg.W2R2, fastreg.WithMetrics(), fastreg.WithSlowOpTrace(time.Hour))
	if err != nil {
		t.Fatalf("WithSlowOpTrace in-process: %v", err)
	}
	defer s.Close()
	driveOps(t, s)
	if st := s.Stats(); !st.Enabled || st.Ops.Count != 40 || st.SlowOps != 0 {
		t.Fatalf("in-process stats with tracing: enabled=%v ops=%d slow=%d", st.Enabled, st.Ops.Count, st.SlowOps)
	}
}
