package netsim

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"fastreg/internal/atomicity"
	"fastreg/internal/protocols"
	"fastreg/internal/quorum"
	"fastreg/internal/register"
	"fastreg/internal/transport"
)

func newMulti(t *testing.T, cfg quorum.Config, p register.Protocol, opts ...MultiOption) *MultiLive {
	t.Helper()
	m, err := NewMultiLive(cfg, p, opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(m.Close)
	return m
}

// serverOpts gives every replica the same transport.Server options.
func serverOpts(opts ...transport.ServerOption) MultiOption {
	return WithMultiServers(func(int) []transport.ServerOption { return opts })
}

// runMix drives every writer and reader of cfg concurrently on key, n
// operations each, and checks the key's history atomic with every
// operation completed.
func runMix(t *testing.T, m *MultiLive, key string, n int) {
	t.Helper()
	cfg := m.Config()
	ctx := context.Background()
	var wg sync.WaitGroup
	for c := 1; c <= cfg.W; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if _, err := m.Write(ctx, key, c, fmt.Sprintf("w%d-%d", c, i)); err != nil {
					t.Errorf("write: %v", err)
					return
				}
			}
		}()
	}
	for c := 1; c <= cfg.R; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if _, err := m.Read(ctx, key, c); err != nil {
					t.Errorf("read: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	h := m.History(key)
	if err := h.WellFormed(); err != nil {
		t.Fatal(err)
	}
	if got, want := len(h.Completed()), (cfg.W+cfg.R)*n; got != want {
		t.Fatalf("completed = %d, want %d", got, want)
	}
	if res := atomicity.Check(h); !res.Atomic {
		t.Fatalf("non-atomic history: %v\n%s", res, h)
	}
}

// The TestLive* cases run the host as the single-register cluster of
// Fig 1: one key, the empty one.

func TestLiveBasic(t *testing.T) {
	m := newMulti(t, cfg521(), protocols.Must("W2R2"))
	w, err := m.Write(context.Background(), "", 1, "live")
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.Read(context.Background(), "", 1)
	if err != nil {
		t.Fatal(err)
	}
	if r != w {
		t.Fatalf("read %v, wrote %v", r, w)
	}
	if res := atomicity.Check(m.History("")); !res.Atomic {
		t.Fatalf("non-atomic: %v", res)
	}
}

func TestLiveConcurrentClientsAtomic(t *testing.T) {
	for name, p := range map[string]register.Protocol{"W2R2": protocols.Must("W2R2"), "W2R1": protocols.Must("W2R1")} {
		t.Run(name, func(t *testing.T) {
			runMix(t, newMulti(t, quorum.Config{S: 7, T: 1, R: 2, W: 2}, p), "", 15)
		})
	}
}

func TestLiveWireEncodingEndToEnd(t *testing.T) {
	// Every batch crosses the binary codec; protocols must be oblivious.
	for name, p := range map[string]register.Protocol{"W2R2": protocols.Must("W2R2"), "W2R1": protocols.Must("W2R1")} {
		t.Run(name, func(t *testing.T) {
			runMix(t, newMulti(t, quorum.Config{S: 5, T: 1, R: 2, W: 2}, p, WithMultiWireEncoding()), "", 8)
		})
	}
}

func TestLiveCrashWithinT(t *testing.T) {
	m := newMulti(t, cfg521(), protocols.Must("W2R2"))
	ctx := context.Background()
	if _, err := m.Write(ctx, "", 1, "before"); err != nil {
		t.Fatal(err)
	}
	m.Crash(2)
	if v, err := m.Read(ctx, "", 1); err != nil || v.Data != "before" {
		t.Fatalf("read after crash: %v %v", v, err)
	}
	if _, err := m.Write(ctx, "", 2, "after"); err != nil {
		t.Fatalf("write after crash: %v", err)
	}
}

func TestLiveCrashUnknownServerPanics(t *testing.T) {
	m := newMulti(t, cfg521(), protocols.Must("W2R2"))
	defer func() {
		if recover() == nil {
			t.Error("Crash of unknown server must panic")
		}
	}()
	m.Crash(99)
}

func TestLiveCrashDoubleSafe(t *testing.T) {
	m := newMulti(t, cfg521(), protocols.Must("W2R2"))
	m.Crash(1)
	m.Crash(1)
	if _, err := m.Read(context.Background(), "", 1); err != nil {
		t.Fatalf("read with one crash: %v", err)
	}
}

func TestLiveExecAfterClose(t *testing.T) {
	m := newMulti(t, cfg521(), protocols.Must("W2R2"))
	m.Close()
	if _, err := m.Write(context.Background(), "", 1, "x"); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("write after Close = %v, want transport.ErrClosed", err)
	}
}

func TestLiveRejectsBadConfig(t *testing.T) {
	if _, err := NewMultiLive(quorum.Config{S: -1}, protocols.Must("W2R2")); err == nil {
		t.Fatal("bad config accepted")
	}
}

func TestLiveDoubleCloseSafe(t *testing.T) {
	m := newMulti(t, cfg521(), protocols.Must("W2R2"))
	m.Close()
	m.Close()
}

func TestMultiLiveBasic(t *testing.T) {
	m := newMulti(t, cfg521(), protocols.Must("W2R2"))
	w, err := m.Write(context.Background(), "k", 1, "hello")
	if err != nil {
		t.Fatal(err)
	}
	r, err := m.Read(context.Background(), "k", 1)
	if err != nil {
		t.Fatal(err)
	}
	if r != w {
		t.Fatalf("read %v, wrote %v", r, w)
	}
	if res := atomicity.Check(m.History("k")); !res.Atomic {
		t.Fatalf("non-atomic: %v", res)
	}
}

func TestMultiLiveKeysAreIndependent(t *testing.T) {
	m := newMulti(t, cfg521(), protocols.Must("W2R2"))
	if _, err := m.Write(context.Background(), "a", 1, "va"); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Write(context.Background(), "b", 2, "vb"); err != nil {
		t.Fatal(err)
	}
	va, err := m.Read(context.Background(), "a", 1)
	if err != nil || va.Data != "va" {
		t.Fatalf("a = %v err=%v", va, err)
	}
	vb, err := m.Read(context.Background(), "b", 2)
	if err != nil || vb.Data != "vb" {
		t.Fatalf("b = %v err=%v", vb, err)
	}
	if got := m.Keys(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("Keys = %v", got)
	}
	// A key never written reads the initial value.
	v, err := m.Read(context.Background(), "nope", 1)
	if err != nil || !v.IsInitial() {
		t.Fatalf("unwritten key = %v err=%v", v, err)
	}
}

func TestMultiLiveServerStateSharded(t *testing.T) {
	// Every touched key materializes protocol state on the replicas that
	// handled it, found via the same shard partition the handlers use.
	m := newMulti(t, cfg521(), protocols.Must("W2R2"))
	keys := []string{"alpha", "beta", "gamma", "delta", "epsilon"}
	for i, k := range keys {
		if _, err := m.Write(context.Background(), k, 1, fmt.Sprintf("v%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	cfg := m.Config()
	for i, k := range keys {
		stored := 0
		for _, srv := range m.Servers() {
			if v, ok := srv.Value(k); ok && v.Data == fmt.Sprintf("v%d", i) {
				stored++
			}
		}
		// A completed write reached at least a reply quorum of servers.
		if stored < cfg.ReplyQuorum() {
			t.Fatalf("key %q stored on %d servers, want ≥ %d", k, stored, cfg.ReplyQuorum())
		}
	}
	// Untouched keys report no state.
	if _, ok := m.Servers()[0].Value("never-written"); ok {
		t.Fatal("state materialized for an untouched key")
	}
}

func TestMultiLiveWireEncoding(t *testing.T) {
	// The key-tagged envelope must survive the full encode → decode pass
	// on every request and reply.
	m := newMulti(t, cfg521(), protocols.Must("W2R2"), WithMultiWireEncoding())
	for _, k := range []string{"users:alice", "config/flags", ""} {
		if _, err := m.Write(context.Background(), k, 1, "wired-"+k); err != nil {
			t.Fatalf("key %q: %v", k, err)
		}
		v, err := m.Read(context.Background(), k, 1)
		if err != nil || v.Data != "wired-"+k {
			t.Fatalf("key %q: read %v err=%v", k, v, err)
		}
	}
}

func TestMultiLiveCrashKillsServerForAllKeys(t *testing.T) {
	cfg := quorum.Config{S: 5, T: 1, R: 2, W: 2}
	m := newMulti(t, cfg, protocols.Must("W2R2"))
	for i := 0; i < 5; i++ {
		if _, err := m.Write(context.Background(), fmt.Sprintf("k%d", i), 1, "pre"); err != nil {
			t.Fatal(err)
		}
	}
	m.Crash(3)
	// One crash is within t: every key (old and new) still serves.
	for i := 0; i < 5; i++ {
		if _, err := m.Read(context.Background(), fmt.Sprintf("k%d", i), 1); err != nil {
			t.Fatalf("post-crash read k%d: %v", i, err)
		}
	}
	if _, err := m.Write(context.Background(), "fresh", 2, "post"); err != nil {
		t.Fatalf("post-crash write: %v", err)
	}
	// Crashing beyond t makes quorums unreachable for every key at once.
	m.Crash(1)
	if _, err := m.Write(context.Background(), "k0", 1, "too-late"); !errors.Is(err, register.ErrProtocol) {
		t.Fatalf("write with t+1 crashes: err = %v, want ErrProtocol", err)
	}
	if _, err := m.Read(context.Background(), "another-fresh", 1); !errors.Is(err, register.ErrProtocol) {
		t.Fatalf("read with t+1 crashes: err = %v, want ErrProtocol", err)
	}
}

func TestMultiLiveClientValidationAndClose(t *testing.T) {
	m := newMulti(t, cfg521(), protocols.Must("W2R2"))
	if _, err := m.Write(context.Background(), "k", 0, "v"); err == nil {
		t.Error("writer 0 accepted")
	}
	if _, err := m.Write(context.Background(), "k", 99, "v"); err == nil {
		t.Error("writer out of range accepted")
	}
	if _, err := m.Read(context.Background(), "k", 99); err == nil {
		t.Error("reader out of range accepted")
	}
	m.Close()
	if _, err := m.Write(context.Background(), "k", 1, "v"); !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("write after close: %v", err)
	}
	m.Close() // idempotent
}

// TestMultiLiveStressManyKeys is the -race stress test of the in-process
// fleet: many keys × concurrent readers and writers × a mid-run server
// crash, with every per-key history checked for atomicity afterwards.
func TestMultiLiveStressManyKeys(t *testing.T) {
	const (
		nKeys  = 24
		nOps   = 12
		server = 4 // crashed mid-run
	)
	for _, tc := range []struct {
		name string
		p    register.Protocol
		cfg  quorum.Config
	}{
		{"W2R2", protocols.Must("W2R2"), quorum.Config{S: 5, T: 1, R: 3, W: 3}},
		{"W2R1", protocols.Must("W2R1"), quorum.Config{S: 9, T: 1, R: 3, W: 3}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := newMulti(t, tc.cfg, tc.p)
			var wg sync.WaitGroup
			crash := make(chan struct{})
			for c := 1; c <= tc.cfg.W; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < nOps; i++ {
						key := fmt.Sprintf("key-%02d", (c*7+i*5)%nKeys)
						if _, err := m.Write(context.Background(), key, c, fmt.Sprintf("w%d-%d", c, i)); err != nil {
							t.Errorf("write: %v", err)
							return
						}
						if c == 1 && i == nOps/2 {
							close(crash)
						}
					}
				}()
			}
			for c := 1; c <= tc.cfg.R; c++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < nOps; i++ {
						key := fmt.Sprintf("key-%02d", (c*3+i*11)%nKeys)
						if _, err := m.Read(context.Background(), key, c); err != nil {
							t.Errorf("read: %v", err)
							return
						}
					}
				}()
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-crash
				m.Crash(server)
			}()
			wg.Wait()
			checked := 0
			for key, h := range m.Histories() {
				if err := h.WellFormed(); err != nil {
					t.Fatalf("key %q: %v", key, err)
				}
				if res := atomicity.Check(h); !res.Atomic {
					t.Fatalf("key %q non-atomic: %v\n%s", key, res, h)
				}
				checked++
			}
			if checked == 0 {
				t.Fatal("no histories recorded")
			}
		})
	}
}

// TestMultiLiveGoroutineFootprint pins the point of one shared fleet: the
// goroutine count is O(servers), independent of the number of keys and of
// the core count — a replica serves each connection on that connection's
// own loop, however many CPUs it has.
func TestMultiLiveGoroutineFootprint(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	cfg := quorum.Config{S: 5, T: 1, R: 1, W: 1}
	before := runtime.NumGoroutine()
	m := newMulti(t, cfg, protocols.Must("W2R2"))
	for i := 0; i < 100; i++ {
		if _, err := m.Write(context.Background(), fmt.Sprintf("key-%03d", i), 1, "v"); err != nil {
			t.Fatal(err)
		}
	}
	during := runtime.NumGoroutine()
	// Per replica: accept loop and one connection loop; per client link:
	// flusher and receive loop.
	fleet := cfg.S * (2 + 2)
	if during > before+fleet+3 {
		t.Fatalf("goroutines grew with keys or cores: before=%d during=%d fleet=%d", before, during, fleet)
	}
	if len(m.Keys()) != 100 {
		t.Fatalf("keys = %d", len(m.Keys()))
	}
}
