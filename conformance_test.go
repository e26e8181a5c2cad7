// Backend conformance: one table-driven suite executed against every
// Open backend through identical code — the point of the Backend seam.
// Every backend must serve puts and gets through session handles, reject
// out-of-range identities at handle creation, honor context deadlines,
// survive ≤ t crashes and fail fast beyond t, pass the atomicity checker
// over a concurrent workload, reproduce a sequential script's exact
// values, and evict idle keys on sweep. CI runs this under -race.
package fastreg_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"fastreg"
	"fastreg/internal/mwabd"
	"fastreg/internal/netsim"
	"fastreg/internal/quorum"
	"fastreg/internal/register"
	"fastreg/internal/transport"
)

// sweeper is the client registry's eviction sweep both backends expose.
type sweeper interface{ Sweep() int }

// backendCase describes one Open backend under conformance test. open
// boots whatever the backend needs (replica servers for TCP), registers
// cleanup, and returns the store plus the replicas it runs against.
type backendCase struct {
	name string
	open func(t *testing.T, cfg fastreg.Config) (*fastreg.Store, []*transport.Server)
}

// bootTCPFleet starts qcfg.S loopback replica servers (closed on test
// cleanup) and returns them with their dial addresses — the stand-in for
// a cmd/regserver fleet every TCP-backend test shares.
func bootTCPFleet(tb testing.TB, qcfg quorum.Config, sopts ...transport.ServerOption) ([]*transport.Server, []string) {
	tb.Helper()
	servers := make([]*transport.Server, qcfg.S)
	addrs := make([]string, qcfg.S)
	for i := range servers {
		lis, err := transport.ListenTCP("127.0.0.1:0")
		if err != nil {
			tb.Fatal(err)
		}
		servers[i], err = transport.NewServer(qcfg, mwabd.New(), i+1, lis, sopts...)
		if err != nil {
			tb.Fatal(err)
		}
		addrs[i] = servers[i].Addr()
		tb.Cleanup(servers[i].Close)
	}
	return servers, addrs
}

// openTCP opens a store against a fresh loopback fleet.
func openTCP(t *testing.T, cfg fastreg.Config, sopts ...transport.ServerOption) (*fastreg.Store, []*transport.Server) {
	t.Helper()
	qcfg := quorum.Config{S: cfg.Servers, T: cfg.MaxCrashes, R: cfg.Readers, W: cfg.Writers}
	servers, addrs := bootTCPFleet(t, qcfg, sopts...)
	s, err := fastreg.Open(cfg, fastreg.W2R2, fastreg.WithTCP(addrs...))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s, servers
}

func backendCases() []backendCase {
	return []backendCase{
		{
			name: "inprocess",
			open: func(t *testing.T, cfg fastreg.Config) (*fastreg.Store, []*transport.Server) {
				t.Helper()
				s, err := fastreg.Open(cfg, fastreg.W2R2, fastreg.WithInProcess())
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(s.Close)
				return s, s.Backend().(*netsim.MultiLive).Servers()
			},
		},
		{
			name: "tcp",
			open: func(t *testing.T, cfg fastreg.Config) (*fastreg.Store, []*transport.Server) {
				return openTCP(t, cfg)
			},
		},
	}
}

// deploymentSweep sweeps the whole deployment once — the client registry
// and every replica — and reports whether NO key state remains anywhere.
// Eviction converges only when no replica holds the key either: a
// straggler request can land at the slow S−t'th server after its sweeps
// started and keep it alive for extra epochs.
func deploymentSweep(s *fastreg.Store, servers []*transport.Server) bool {
	s.Backend().(sweeper).Sweep()
	empty := len(s.Keys()) == 0
	for _, srv := range servers {
		srv.Sweep()
		if srv.KeyCount() != 0 {
			empty = false
		}
	}
	return empty
}

func conformanceCfg() fastreg.Config {
	return fastreg.Config{Servers: 5, MaxCrashes: 1, Readers: 3, Writers: 3}
}

func TestBackendConformance(t *testing.T) {
	for _, bc := range backendCases() {
		bc := bc
		t.Run(bc.name, func(t *testing.T) {
			t.Run("PutGet", func(t *testing.T) {
				s, _ := bc.open(t, conformanceCfg())
				ctx := context.Background()
				w, err := s.Writer(1)
				if err != nil {
					t.Fatal(err)
				}
				r, err := s.Reader(1)
				if err != nil {
					t.Fatal(err)
				}
				ver, err := w.Put(ctx, "k", "hello")
				if err != nil {
					t.Fatal(err)
				}
				if ver.TS < 1 || ver.Writer != 1 {
					t.Fatalf("put version = %v", ver)
				}
				v, rver, ok, err := r.Get(ctx, "k")
				if err != nil || !ok || v != "hello" {
					t.Fatalf("Get = %q ok=%v err=%v", v, ok, err)
				}
				if rver != ver {
					t.Fatalf("read version %v != written %v", rver, ver)
				}
				if _, _, ok, err := r.Get(ctx, "never-written"); err != nil || ok {
					t.Fatalf("missing key: ok=%v err=%v", ok, err)
				}
			})

			t.Run("HandleRange", func(t *testing.T) {
				s, _ := bc.open(t, conformanceCfg())
				cfg := s.Config()
				for _, i := range []int{0, -1, cfg.Writers + 1} {
					if _, err := s.Writer(i); err == nil {
						t.Fatalf("Writer(%d) must fail", i)
					}
				}
				for _, i := range []int{0, -1, cfg.Readers + 1} {
					if _, err := s.Reader(i); err == nil {
						t.Fatalf("Reader(%d) must fail", i)
					}
				}
			})

			t.Run("CtxTimeout", func(t *testing.T) {
				s, _ := bc.open(t, conformanceCfg())
				w, _ := s.Writer(1)
				r, _ := s.Reader(1)
				ctx, cancel := context.WithCancel(context.Background())
				cancel() // already expired: expiry must win deterministically
				if _, err := w.Put(ctx, "k", "v"); !fastreg.IsTimeout(err) {
					t.Fatalf("Put with cancelled ctx = %v, want ErrTimeout", err)
				}
				if _, _, _, err := r.Get(ctx, "k"); !fastreg.IsTimeout(err) {
					t.Fatalf("Get with cancelled ctx = %v, want ErrTimeout", err)
				}
				// The timed-out ops are recorded as failed (optional for the
				// checker); the store must still check clean.
				if res := s.Check(); !res.Atomic {
					t.Fatalf("after timeouts: %s", res.Explanation)
				}
			})

			t.Run("CrashAndCheck", func(t *testing.T) {
				s, _ := bc.open(t, conformanceCfg())
				cfg := s.Config()
				ctx := context.Background()
				keys := []string{"users:a", "users:b", "cfg:c"}
				var wg sync.WaitGroup
				for i := 1; i <= cfg.Writers; i++ {
					w, err := s.Writer(i)
					if err != nil {
						t.Fatal(err)
					}
					wg.Add(1)
					go func(i int, w *fastreg.Writer) {
						defer wg.Done()
						for n := 0; n < 8; n++ {
							if _, err := w.Put(ctx, keys[(i+n)%len(keys)], fmt.Sprintf("w%d#%d", i, n)); err != nil {
								t.Errorf("put: %v", err)
								return
							}
							if i == 1 && n == 3 {
								// ≤ t crashes: operations must keep completing.
								s.CrashServer(cfg.Servers)
							}
						}
					}(i, w)
				}
				for i := 1; i <= cfg.Readers; i++ {
					r, err := s.Reader(i)
					if err != nil {
						t.Fatal(err)
					}
					wg.Add(1)
					go func(i int, r *fastreg.Reader) {
						defer wg.Done()
						for n := 0; n < 8; n++ {
							if _, _, _, err := r.Get(ctx, keys[(i+n)%len(keys)]); err != nil {
								t.Errorf("get: %v", err)
								return
							}
						}
					}(i, r)
				}
				wg.Wait()
				if t.Failed() {
					return
				}
				res := s.Check()
				if !res.Atomic {
					t.Fatalf("atomicity violated: %s", res.Explanation)
				}
				if res.Operations == 0 {
					t.Fatal("checker saw no operations")
				}
				if got := len(s.Keys()); got != len(keys) {
					t.Fatalf("Keys() = %d, want %d", got, len(keys))
				}
			})

			t.Run("CrashBeyondT", func(t *testing.T) {
				s, _ := bc.open(t, conformanceCfg())
				cfg := s.Config()
				w, _ := s.Writer(1)
				r, _ := s.Reader(1)
				if _, err := w.Put(context.Background(), "k", "v"); err != nil {
					t.Fatal(err)
				}
				for i := 0; i <= cfg.MaxCrashes; i++ {
					s.CrashServer(cfg.Servers - i)
				}
				// No quorum can form: both kinds fail fast with a protocol
				// error, long before the context would expire.
				ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
				defer cancel()
				if _, err := w.Put(ctx, "k", "v2"); !errors.Is(err, register.ErrProtocol) {
					t.Fatalf("Put with t+1 crashes = %v, want ErrProtocol", err)
				}
				if _, _, _, err := r.Get(ctx, "fresh"); !errors.Is(err, register.ErrProtocol) {
					t.Fatalf("Get with t+1 crashes = %v, want ErrProtocol", err)
				}
			})

			t.Run("SequentialScript", func(t *testing.T) {
				// One deterministic script of puts, a crash within t, then
				// gets: every backend must return exactly these values.
				s, _ := bc.open(t, conformanceCfg())
				ctx := context.Background()
				keys := []string{"users:alice", "users:bob", "config:flags", "queue:jobs"}
				for i := 0; i < 12; i++ {
					w, _ := s.Writer(1 + i%2)
					if _, err := w.Put(ctx, keys[i%len(keys)], fmt.Sprintf("v%d", i)); err != nil {
						t.Fatalf("put %d: %v", i, err)
					}
					if i == 6 {
						s.CrashServer(2)
					}
				}
				r, _ := s.Reader(1)
				got := map[string]string{}
				for _, k := range append(keys, "never-written") {
					v, _, ok, err := r.Get(ctx, k)
					if err != nil {
						t.Fatalf("get %q: %v", k, err)
					}
					got[k] = fmt.Sprintf("%q %v", v, ok)
				}
				want := map[string]string{
					"users:alice":   `"v8" true`,
					"users:bob":     `"v9" true`,
					"config:flags":  `"v10" true`,
					"queue:jobs":    `"v11" true`,
					"never-written": `"" false`,
				}
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("gets = %v, want %v", got, want)
				}
				wantKeys := []string{"config:flags", "never-written", "queue:jobs", "users:alice", "users:bob"}
				if k := s.Keys(); !reflect.DeepEqual(k, wantKeys) {
					t.Fatalf("Keys() = %v, want %v", k, wantKeys)
				}
				// Three puts and one get per written key, one get of the
				// unwritten one — all completed, all atomic.
				ops := 0
				for k, h := range s.Backend().Histories() {
					n, want := len(h.Completed()), 4
					if k == "never-written" {
						want = 1
					}
					if n != want {
						t.Fatalf("key %q: %d completed ops, want %d", k, n, want)
					}
					ops += n
				}
				if res := s.Check(); !res.Atomic || res.Operations != ops || ops != 17 {
					t.Fatalf("check = %+v over %d ops, want atomic over 17", res, ops)
				}
			})

			t.Run("Eviction", func(t *testing.T) {
				s, servers := bc.open(t, conformanceCfg())
				ctx := context.Background()
				w, _ := s.Writer(1)
				r, _ := s.Reader(1)
				if _, err := w.Put(ctx, "idle", "v"); err != nil {
					t.Fatal(err)
				}
				// Repeated sweeps with no touches in between: once the key's
				// straggler messages drain (a completed op only needed S−t
				// replies), it is idle for a full epoch and must be evicted
				// from every component of the deployment.
				deadline := time.Now().Add(5 * time.Second)
				for !deploymentSweep(s, servers) {
					if time.Now().After(deadline) {
						t.Fatal("sweeps never drained the key state")
					}
					time.Sleep(time.Millisecond)
				}
				v, _, ok, err := r.Get(ctx, "idle")
				if err != nil {
					t.Fatal(err)
				}
				if ok {
					t.Fatalf("evicted key reads as written: %q", v)
				}
				// The key must be writable again after expiry.
				if _, err := w.Put(ctx, "idle", "again"); err != nil {
					t.Fatal(err)
				}
				if v, _, ok, err := r.Get(ctx, "idle"); err != nil || !ok || v != "again" {
					t.Fatalf("after re-write: %q ok=%v err=%v", v, ok, err)
				}
			})
		})
	}
}

// TestBackendConformanceDeadline exercises a real (ticking) deadline
// against an unreachable quorum on the TCP backend: with every replica
// gone, an operation must block exactly until ctx expires, then surface
// ErrTimeout.
func TestBackendConformanceDeadline(t *testing.T) {
	cfg := conformanceCfg()
	qcfg := quorum.Config{S: cfg.Servers, T: cfg.MaxCrashes, R: cfg.Readers, W: cfg.Writers}
	servers, addrs := bootTCPFleet(t, qcfg)
	s, err := fastreg.Open(cfg, fastreg.W2R2, fastreg.WithTCP(addrs...))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	w, _ := s.Writer(1)
	if _, err := w.Put(context.Background(), "k", "v"); err != nil {
		t.Fatal(err)
	}
	for _, srv := range servers {
		srv.Close() // the whole fleet dies: no quorum can form
	}
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = w.Put(ctx, "k", "v2")
	if !errors.Is(err, fastreg.ErrTimeout) {
		t.Fatalf("Put against dead fleet = %v, want ErrTimeout", err)
	}
	if d := time.Since(start); d < 50*time.Millisecond {
		t.Fatalf("returned after %v — before the deadline", d)
	}
}
