package netsim

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"fastreg/internal/protocols"
	"fastreg/internal/quorum"
	"fastreg/internal/register"
	"fastreg/internal/transport"
)

// eventually polls cond for up to five seconds.
func eventually(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("never: %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// countServerKeys sums per-key server state entries across all replicas.
func countServerKeys(m *MultiLive) int {
	n := 0
	for _, srv := range m.Servers() {
		n += srv.KeyCount()
	}
	return n
}

// settled waits until every replica stores data for key: the write's
// stragglers (it completed on S−t replies) have all been handled.
func settled(t *testing.T, m *MultiLive, key, data string) {
	t.Helper()
	eventually(t, key+" reaching every replica", func() bool {
		for _, srv := range m.Servers() {
			if v, ok := srv.Value(key); !ok || v.Data != data {
				return false
			}
		}
		return true
	})
}

// evictionOpts turns on the in-process eviction fastreg.WithEvictionTTL
// configures: the client's sweep plus every replica's.
func evictionOpts(ttl time.Duration) []MultiOption {
	return []MultiOption{
		WithMultiClient(transport.WithClientEviction(ttl)),
		serverOpts(transport.WithServerEviction(ttl)),
	}
}

// TestMultiLiveSweep drives the epoch machinery directly: a key untouched
// for a full epoch is evicted from the client registry and every
// replica's shard map; a key touched each epoch survives.
func TestMultiLiveSweep(t *testing.T) {
	cfg := quorum.Config{S: 3, T: 1, R: 1, W: 1}
	m := newMulti(t, cfg, protocols.Must("W2R2"))
	ctx := context.Background()
	sweep := func() (client, servers int) {
		client = m.Sweep()
		for _, srv := range m.Servers() {
			servers += srv.Sweep()
		}
		return client, servers
	}

	for i := 0; i < 8; i++ {
		k := fmt.Sprintf("idle-%d", i)
		if _, err := m.Write(ctx, k, 1, "v"); err != nil {
			t.Fatal(err)
		}
		settled(t, m, k, "v")
	}
	if _, err := m.Write(ctx, "hot", 1, "v"); err != nil {
		t.Fatal(err)
	}
	settled(t, m, "hot", "v")
	if got := len(m.Keys()); got != 9 {
		t.Fatalf("%d keys before sweep, want 9", got)
	}
	if got := countServerKeys(m); got != 9*cfg.S {
		t.Fatalf("%d server entries before sweep, want %d", got, 9*cfg.S)
	}

	// Epoch 0 → 1: everything was stamped in epoch 0, nothing is a full
	// epoch old yet.
	if c, s := sweep(); c != 0 || s != 0 {
		t.Fatalf("first sweep evicted %d client / %d server keys, want 0", c, s)
	}
	// Keep "hot" alive in epoch 1, at the client and every replica.
	if _, err := m.Write(ctx, "hot", 1, "v2"); err != nil {
		t.Fatal(err)
	}
	settled(t, m, "hot", "v2")
	// Epoch 1 → 2: the idle keys (stamp 0 ≤ cutoff 0) go; "hot" (stamp 1)
	// stays.
	if c, s := sweep(); c != 8 || s != 8*cfg.S {
		t.Fatalf("second sweep evicted %d client / %d server keys, want 8 / %d", c, s, 8*cfg.S)
	}
	if got := m.Keys(); len(got) != 1 || got[0] != "hot" {
		t.Fatalf("keys after sweep: %v, want [hot]", got)
	}
	if got := countServerKeys(m); got != cfg.S {
		t.Fatalf("%d server entries after sweep, want %d", got, cfg.S)
	}

	// An evicted key reads as never written again (TTL-expiry semantics)
	// and is fully usable afterward.
	v, err := m.Read(ctx, "idle-0", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !v.IsInitial() {
		t.Fatalf("evicted key read %v, want initial", v)
	}
	if _, err := m.Write(ctx, "idle-0", 1, "again"); err != nil {
		t.Fatal(err)
	}
	if v, err := m.Read(ctx, "idle-0", 1); err != nil || v.Data != "again" {
		t.Fatalf("rewrite after eviction: %v %v", v, err)
	}
}

// TestMultiLiveEvictionTTL exercises the background sweepers end to end
// with a real (short) TTL.
func TestMultiLiveEvictionTTL(t *testing.T) {
	cfg := quorum.Config{S: 3, T: 1, R: 1, W: 1}
	m := newMulti(t, cfg, protocols.Must("W2R2"), evictionOpts(20*time.Millisecond)...)
	for i := 0; i < 4; i++ {
		if _, err := m.Write(context.Background(), fmt.Sprintf("k%d", i), 1, "v"); err != nil {
			t.Fatal(err)
		}
	}
	eventually(t, "keys evicted everywhere", func() bool {
		return len(m.Keys()) == 0 && countServerKeys(m) == 0
	})
}

// TestMultiLiveEvictionUnderLoad races aggressive sweepers against a
// concurrent workload: operations must never fail or trip the race
// detector.
func TestMultiLiveEvictionUnderLoad(t *testing.T) {
	cfg := quorum.Config{S: 3, T: 1, R: 2, W: 2}
	m := newMulti(t, cfg, protocols.Must("W2R2"), evictionOpts(time.Millisecond)...)
	done := make(chan error, cfg.R+cfg.W)
	for w := 1; w <= cfg.W; w++ {
		go func() {
			for i := 0; i < 200; i++ {
				if _, err := m.Write(context.Background(), fmt.Sprintf("k%d", i%5), w, "v"); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for r := 1; r <= cfg.R; r++ {
		go func() {
			for i := 0; i < 200; i++ {
				if _, err := m.Read(context.Background(), fmt.Sprintf("k%d", i%5), r); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}()
	}
	for i := 0; i < cfg.R+cfg.W; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestMultiLiveEvictionOffByDefault: without the options, nothing ever
// disappears (no sweeper is even running).
func TestMultiLiveEvictionOffByDefault(t *testing.T) {
	cfg := quorum.Config{S: 3, T: 1, R: 1, W: 1}
	m := newMulti(t, cfg, protocols.Must("W2R2"))
	if _, err := m.Write(context.Background(), "k", 1, "v"); err != nil {
		t.Fatal(err)
	}
	settled(t, m, "k", "v")
	time.Sleep(50 * time.Millisecond)
	if len(m.Keys()) != 1 || countServerKeys(m) != cfg.S {
		t.Fatalf("keys vanished without eviction: %v, %d server entries", m.Keys(), countServerKeys(m))
	}
}

// TestMultiLiveTimeout: with more than t servers crashed an operation
// fails fast with register.ErrProtocol, and a context deadline bounds
// every operation with register.ErrTimeout.
func TestMultiLiveTimeout(t *testing.T) {
	cfg := quorum.Config{S: 3, T: 1, R: 1, W: 1}
	m := newMulti(t, cfg, protocols.Must("W2R2"))
	if _, err := m.Write(context.Background(), "k", 1, "v"); err != nil {
		t.Fatal(err)
	}
	m.Crash(1)
	// One crash is within t: still fine.
	if _, err := m.Read(context.Background(), "k", 1); err != nil {
		t.Fatal(err)
	}
	m.Crash(2)
	// Two crashes exceed t=1: only one link is left for a round that
	// needs S−t=2 replies, so the round fails before it waits.
	if _, err := m.Read(context.Background(), "k", 1); !errors.Is(err, register.ErrProtocol) {
		t.Fatalf("got %v, want ErrProtocol (quorum unreachable)", err)
	}
	// An already-expired context wins deterministically over replies.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m2 := newMulti(t, cfg, protocols.Must("W2R2"))
	if _, err := m2.Write(ctx, "k", 1, "v"); !errors.Is(err, register.ErrTimeout) {
		t.Fatalf("got %v, want ErrTimeout", err)
	}
	if n := len(m2.History("k").Failed()); n != 1 {
		t.Fatalf("%d failed ops, want 1", n)
	}
}
