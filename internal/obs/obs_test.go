package obs

import (
	"encoding/json"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterAndGauge(t *testing.T) {
	c := &Counter{}
	c.Add(3)
	c.Add(4)
	if got := c.Value(); got != 7 {
		t.Fatalf("Counter.Value = %d, want 7", got)
	}
	g := &Gauge{}
	g.Set(10)
	g.Add(-3)
	if got := g.Value(); got != 7 {
		t.Fatalf("Gauge.Value = %d, want 7", got)
	}
}

func TestNilMetricsAreNoOps(t *testing.T) {
	var (
		c  *Counter
		g  *Gauge
		h  *Histogram
		r  *Registry
		tr *Tracer
		m  *OpMetrics
	)
	c.Add(1)
	g.Set(1)
	h.Observe(1)
	h.ObserveSince(time.Now())
	m.Op(true, 5, 1, false)
	m.Retry()
	if c.Value() != 0 || g.Value() != 0 || h.Snapshot().Count != 0 {
		t.Fatal("nil metrics must read zero")
	}
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x") != nil {
		t.Fatal("nil registry must hand out nil metrics")
	}
	r.GaugeFunc("x", func() int64 { return 1 })
	if s := r.Snapshot(); len(s.Counters) != 0 || len(s.Gauges) != 0 || len(s.Histograms) != 0 {
		t.Fatal("nil registry snapshot must be empty")
	}
	if NewOpMetrics(r, "p") != nil {
		t.Fatal("NewOpMetrics(nil) must be nil")
	}
	op := tr.Start("k", "read", "r1")
	if op != nil {
		t.Fatal("nil tracer must return nil trace")
	}
	op.Mark("sent", 1)
	tr.Finish(op)
	if tr.SlowCount() != 0 || tr.SlowOps() != nil || tr.Threshold() != 0 {
		t.Fatal("nil tracer must read zero")
	}
}

func TestBucketMappingMonotonicAndBounded(t *testing.T) {
	prev := -1
	for _, v := range []int64{0, 1, 2, 3, 4, 7, 8, 9, 15, 16, 100, 1000, 1e6, 1e9, 1e12, 1e15, 1e18, 1<<63 - 1} {
		idx := bucketOf(v)
		if idx < prev {
			t.Fatalf("bucketOf(%d) = %d < previous %d: not monotonic", v, idx, prev)
		}
		if idx < 0 || idx >= histBuckets {
			t.Fatalf("bucketOf(%d) = %d out of range", v, idx)
		}
		prev = idx
		// The representative must be within the bucket's relative error
		// bound (~12.5% of the value for log buckets).
		if mid := bucketMid(idx); v >= 8 {
			lo, hi := float64(v)*0.80, float64(v)*1.20
			if float64(mid) < lo || float64(mid) > hi {
				t.Fatalf("bucketMid(bucketOf(%d)) = %d, outside [%.0f, %.0f]", v, mid, lo, hi)
			}
		} else if mid != v {
			t.Fatalf("small value %d must be exact, got representative %d", v, mid)
		}
	}
	if bucketOf(-5) != 0 {
		t.Fatal("negative values must clamp to bucket 0")
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := &Histogram{}
	// 1..1000 uniformly: p50 ≈ 500, p95 ≈ 950, p99 ≈ 990 within the
	// ~12.5% bucket error.
	for i := int64(1); i <= 1000; i++ {
		h.Observe(i)
	}
	s := h.Snapshot()
	if s.Count != 1000 {
		t.Fatalf("Count = %d, want 1000", s.Count)
	}
	if s.Sum != 500500 {
		t.Fatalf("Sum = %d, want 500500 (sums are exact)", s.Sum)
	}
	check := func(q float64, want int64) {
		t.Helper()
		got := s.Quantile(q)
		lo, hi := float64(want)*0.75, float64(want)*1.25
		if float64(got) < lo || float64(got) > hi {
			t.Fatalf("Quantile(%v) = %d, want within [%.0f, %.0f]", q, got, lo, hi)
		}
	}
	check(0.50, 500)
	check(0.95, 950)
	check(0.99, 990)
	if s.Max() < 900 || s.Max() > 1100 {
		t.Fatalf("Max = %d, want ≈1000", s.Max())
	}
}

func TestHistogramSnapshotMerge(t *testing.T) {
	a, b := &Histogram{}, &Histogram{}
	for i := 0; i < 100; i++ {
		a.Observe(10)
		b.Observe(1000)
	}
	sa, sb := a.Snapshot(), b.Snapshot()
	sa.Merge(sb)
	if sa.Count != 200 || sa.Sum != 100*10+100*1000 {
		t.Fatalf("merged Count/Sum = %d/%d", sa.Count, sa.Sum)
	}
	if p := sa.Quantile(0.25); p < 8 || p > 12 {
		t.Fatalf("merged p25 = %d, want ≈10", p)
	}
	if p := sa.Quantile(0.75); p < 750 || p > 1250 {
		t.Fatalf("merged p75 = %d, want ≈1000", p)
	}
}

// TestStressConcurrent hammers one histogram/counter/gauge set from 32
// goroutines with snapshot reads interleaved — the -race lock-in for the
// whole recording path.
func TestStressConcurrent(t *testing.T) {
	const (
		goroutines = 32
		perG       = 2000
	)
	reg := New()
	c := reg.Counter("stress.ops")
	g := reg.Gauge("stress.depth")
	h := reg.Histogram("stress.latency_ns")
	reg.GaugeFunc("stress.pull", func() int64 { return g.Value() })

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for i := 0; i < 4; i++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					_ = reg.Snapshot()
					_ = h.Snapshot()
					_ = c.Value()
				}
			}
		}()
	}

	var writers sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		writers.Add(1)
		go func(seed int64) {
			defer writers.Done()
			for j := 0; j < perG; j++ {
				c.Add(1)
				g.Add(1)
				h.Observe(seed*100 + int64(j%100))
				g.Add(-1)
			}
		}(int64(i))
	}
	writers.Wait()
	close(stop)
	readers.Wait()

	if got := c.Value(); got != goroutines*perG {
		t.Fatalf("counter lost updates: %d, want %d", got, goroutines*perG)
	}
	if got := h.Snapshot().Count; got != goroutines*perG {
		t.Fatalf("histogram lost observations: %d, want %d", got, goroutines*perG)
	}
	if got := g.Value(); got != 0 {
		t.Fatalf("gauge should settle at 0, got %d", got)
	}
}

func TestTracerRecordsSlowOps(t *testing.T) {
	var buf strings.Builder
	tr := NewTracer(0, &buf) // threshold 0: every op is "slow"
	op := tr.Start("key-1", "write", "w2")
	op.Mark("sent", 1)
	op.Mark("quorum", 1)
	op.Mark("sent", 2)
	op.Mark("quorum", 2)
	tr.Finish(op)

	if tr.SlowCount() != 1 {
		t.Fatalf("SlowCount = %d, want 1", tr.SlowCount())
	}
	ops := tr.SlowOps()
	if len(ops) != 1 {
		t.Fatalf("SlowOps len = %d, want 1", len(ops))
	}
	rec := ops[0]
	if rec.Key != "key-1" || rec.Kind != "write" || rec.Client != "w2" {
		t.Fatalf("bad record: %+v", rec)
	}
	var names []string
	for _, s := range rec.Stages {
		names = append(names, s.Name)
	}
	want := []string{"queued", "sent", "quorum", "sent", "quorum", "done"}
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Fatalf("stages %v, want %v", names, want)
	}
	line := buf.String()
	if !strings.Contains(line, `slow write key="key-1"`) || !strings.Contains(line, "r2:quorum@") {
		t.Fatalf("dump line %q missing fields", line)
	}
	// Pool reuse must not leak the previous op's stages.
	op2 := tr.Start("key-2", "read", "r1")
	tr.Finish(op2)
	ops = tr.SlowOps()
	if got := len(ops[1].Stages); got != 2 { // queued + done
		t.Fatalf("reused trace carried %d stages, want 2", got)
	}
}

func TestTracerRingBounded(t *testing.T) {
	tr := NewTracer(0, nil)
	for i := 0; i < slowRingCap+10; i++ {
		tr.Finish(tr.Start("k", "read", "r1"))
	}
	if got := len(tr.SlowOps()); got != slowRingCap {
		t.Fatalf("ring holds %d, want %d", got, slowRingCap)
	}
	if got := tr.SlowCount(); got != slowRingCap+10 {
		t.Fatalf("SlowCount = %d, want %d", got, slowRingCap+10)
	}
}

func TestTracerThresholdFiltersFastOps(t *testing.T) {
	tr := NewTracer(time.Hour, nil)
	tr.Finish(tr.Start("k", "read", "r1"))
	if tr.SlowCount() != 0 || len(tr.SlowOps()) != 0 {
		t.Fatal("an op far under threshold must not be retained")
	}
}

func TestHandlerEndpoints(t *testing.T) {
	reg := New()
	reg.Counter("client.W2R2.ops").Add(42)
	reg.GaugeFunc("server.keys", func() int64 { return 1 })
	reg.Histogram("client.W2R2.write.latency_ns").Observe(1500)
	tr := NewTracer(0, nil)
	tr.Finish(tr.Start("k", "write", "w1"))

	srv := httptest.NewServer(Handler(reg, tr))
	defer srv.Close()

	get := func(path string) string {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var b strings.Builder
		buf := make([]byte, 64<<10)
		for {
			n, err := resp.Body.Read(buf)
			b.Write(buf[:n])
			if err != nil {
				break
			}
		}
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: %d", path, resp.StatusCode)
		}
		return b.String()
	}

	if got := get("/healthz"); !strings.Contains(got, "ok") {
		t.Fatalf("/healthz = %q", got)
	}
	var snap Snapshot
	if err := json.Unmarshal([]byte(get("/metrics")), &snap); err != nil {
		t.Fatalf("/metrics not JSON: %v", err)
	}
	if snap.Counters["client.W2R2.ops"] != 42 {
		t.Fatalf("counter missing from /metrics: %+v", snap.Counters)
	}
	if snap.Gauges["server.keys"] != 1 {
		t.Fatalf("gauge func missing from /metrics: %+v", snap.Gauges)
	}
	if h := snap.Histograms["client.W2R2.write.latency_ns"]; h.Count != 1 || h.P99 == 0 {
		t.Fatalf("histogram missing percentiles: %+v", h)
	}
	slow := get("/debug/slowops")
	if !strings.Contains(slow, `"total": 1`) || !strings.Contains(slow, `"kind": "write"`) {
		t.Fatalf("/debug/slowops = %s", slow)
	}
	// Nil registry and tracer: same endpoints, empty bodies, no panic.
	nilSrv := httptest.NewServer(Handler(nil, nil))
	defer nilSrv.Close()
	resp, err := nilSrv.Client().Get(nilSrv.URL + "/metrics")
	if err != nil || resp.StatusCode != 200 {
		t.Fatalf("nil handler /metrics: %v %v", err, resp)
	}
	resp.Body.Close()
}

func TestRegistryGetOrCreate(t *testing.T) {
	reg := New()
	if reg.Counter("a") != reg.Counter("a") {
		t.Fatal("same name must return the same counter")
	}
	if reg.Histogram("h") != reg.Histogram("h") {
		t.Fatal("same name must return the same histogram")
	}
	names := reg.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "h" {
		t.Fatalf("Names = %v", names)
	}
}
