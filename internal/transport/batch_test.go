package transport

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"fastreg/internal/atomicity"
	"fastreg/internal/crucialinfo"
	"fastreg/internal/proto"
	"fastreg/internal/protocols"
	"fastreg/internal/quorum"
	"fastreg/internal/register"
	"fastreg/internal/types"
)

// exerciseBatchConn sends mixed single and batched envelopes one way and
// checks both RecvBatch (which may merge frames already buffered — the
// opportunistic drain) and Recv (envelope at a time) deliver everything
// in order with nothing lost or duplicated.
func exerciseBatchConn(t *testing.T, a, b Conn) {
	t.Helper()
	mk := func(i int) proto.Envelope { return testEnvelope(i) }
	// One batch, then a single, then another batch.
	if err := a.SendBatch([]proto.Envelope{mk(0), mk(1), mk(2)}); err != nil {
		t.Fatalf("SendBatch: %v", err)
	}
	if err := a.Send(mk(3)); err != nil {
		t.Fatalf("Send: %v", err)
	}
	if err := a.SendBatch([]proto.Envelope{mk(4), mk(5)}); err != nil {
		t.Fatalf("SendBatch: %v", err)
	}
	const total = 6
	// Drain one RecvBatch (≥1 envelope, possibly several frames merged),
	// then take the rest one Recv at a time: order must be exact.
	got, err := b.RecvBatch()
	if err != nil {
		t.Fatalf("RecvBatch: %v", err)
	}
	if len(got) == 0 {
		t.Fatal("RecvBatch returned an empty batch")
	}
	for len(got) < total {
		env, err := b.Recv()
		if err != nil {
			t.Fatalf("Recv after %d envelopes: %v", len(got), err)
		}
		got = append(got, env)
	}
	want := make([]proto.Envelope, total)
	for i := range want {
		want[i] = mk(i)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("delivery mismatch:\n got  %v\n want %v", got, want)
	}
}

func TestChanConnBatch(t *testing.T) {
	net := NewChanNetwork()
	lis, err := net.Listen("s1")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	accepted := make(chan Conn, 1)
	go func() {
		c, err := lis.Accept()
		if err != nil {
			t.Error(err)
			return
		}
		accepted <- c
	}()
	client, err := net.Dial("s1")
	if err != nil {
		t.Fatal(err)
	}
	exerciseBatchConn(t, client, <-accepted)
}

func TestTCPConnBatch(t *testing.T) {
	lis, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	accepted := make(chan Conn, 1)
	go func() {
		c, err := lis.Accept()
		if err != nil {
			t.Error(err)
			return
		}
		accepted <- c
	}()
	client, err := DialTCP(lis.Addr())
	if err != nil {
		t.Fatal(err)
	}
	server := <-accepted
	defer server.Close()
	defer client.Close()
	exerciseBatchConn(t, client, server)
}

// TestClusterSharedLinksBatching is the batching stress: ONE Client — so
// every identity shares the same S serverLinks and their coalescing
// queues — hosts 4 writers and 4 readers issuing concurrent operations
// over TCP. Concurrent rounds to the same server coalesce into batch
// frames; the combined per-key histories must still pass the atomicity
// checker. CI runs this under -race (the TestCluster prefix).
func TestClusterSharedLinksBatching(t *testing.T) {
	cfg := quorum.Config{S: 3, T: 1, R: 4, W: 4}
	_, addrs := startTCPCluster(t, cfg, protocols.Must("W2R2"))
	c, err := NewClient(cfg, protocols.Must("W2R2"), addrs, DialTCP)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const opsPerClient = 25
	keys := []string{"alpha", "beta", "gamma"}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errs := make(chan error, cfg.W+cfg.R)
	for w := 1; w <= cfg.W; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < opsPerClient; i++ {
				if _, err := c.Write(ctx, keys[(w+i)%len(keys)], w, fmt.Sprintf("w%d-%d", w, i)); err != nil {
					errs <- fmt.Errorf("writer %d op %d: %w", w, i, err)
					return
				}
			}
		}(w)
	}
	for r := 1; r <= cfg.R; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := 0; i < opsPerClient; i++ {
				if _, err := c.Read(ctx, keys[(r+i)%len(keys)], r); err != nil {
					errs <- fmt.Errorf("reader %d op %d: %w", r, i, err)
					return
				}
			}
		}(r)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	total := 0
	for _, key := range c.Keys() {
		h := c.History(key)
		if err := h.WellFormed(); err != nil {
			t.Fatalf("key %s: malformed history: %v", key, err)
		}
		res := atomicity.Check(h)
		if !res.Atomic {
			t.Fatalf("key %s: atomicity violated under batching: %s", key, res)
		}
		total += len(h.Completed())
	}
	if want := (cfg.W + cfg.R) * opsPerClient; total != want {
		t.Fatalf("completed %d operations, want %d", total, want)
	}
}

// TestTimedOutWriteRecordsTag pins the history side of the "trust the
// checker on timeouts" fix: a two-round write that times out AFTER its
// query round has already assigned its tag (and possibly landed updates
// on some servers). The failed op must be recorded with that tagged
// value — not the untagged invoke-time argument — or a later read of the
// value would be flagged read-from-nowhere. Servers here answer the
// write's TagQuery and swallow updates, forcing exactly that timeout.
func TestTimedOutWriteRecordsTag(t *testing.T) {
	cfg := quorum.Config{S: 3, T: 1, R: 1, W: 1}
	net := NewChanNetwork()
	addrs := make([]string, cfg.S)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("s%d", i+1)
		lis, err := net.Listen(addrs[i])
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { lis.Close() })
		id := types.Server(i + 1)
		go func() {
			for {
				conn, err := lis.Accept()
				if err != nil {
					return
				}
				go func() {
					for {
						envs, err := conn.RecvBatch()
						if err != nil {
							return
						}
						for _, env := range envs {
							if _, ok := env.Payload.(proto.TagQuery); !ok {
								continue // swallow round-2 updates
							}
							conn.Send(proto.Envelope{
								From: id, To: env.From, Key: env.Key, OpID: env.OpID,
								Round: env.Round, IsReply: true,
								Payload: proto.TagAck{Tag: &types.Tag{}},
							})
						}
					}
				}()
			}
		}()
	}
	c, err := NewClient(cfg, protocols.Must("W2R2"), addrs, net.Dial)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	if _, err := c.Write(ctx, "k", 1, "v"); !errors.Is(err, register.ErrTimeout) {
		t.Fatalf("got %v, want ErrTimeout", err)
	}
	failed := c.History("k").Failed()
	if len(failed) != 1 {
		t.Fatalf("failed ops = %d, want 1", len(failed))
	}
	want := types.Value{Tag: types.Tag{TS: 1, WID: types.Writer(1)}, Data: "v"}
	if failed[0].Value != want {
		t.Fatalf("timed-out write recorded as %v, want %v", failed[0].Value, want)
	}
}

// TestServerEvictionMixedRounds checks protocols whose operations take
// fewer rounds than the protocol's max never leak or pin eviction
// records: a key whose last operations were such reads still evicts once
// idle. W2R1 has 1-round FastRead reads; FullInfo's reads START with a
// FastRead and END with a Query (the inverse of the query-then-update
// shape). The regressions were (a) keying "open" on the max round count,
// leaving every shorter op permanently open, and (b) keying on the
// payload kind alone, leaving every FullInfo read's final Query open.
func TestServerEvictionMixedRounds(t *testing.T) {
	for _, p := range []register.Protocol{protocols.Must("W2R1"), crucialinfo.New()} {
		t.Run(p.Name(), func(t *testing.T) {
			cfg := quorum.Config{S: 5, T: 1, R: 2, W: 2}
			net := NewChanNetwork()
			servers := make([]*Server, cfg.S)
			addrs := make([]string, cfg.S)
			for i := 0; i < cfg.S; i++ {
				addrs[i] = fmt.Sprintf("s%d", i+1)
				lis, err := net.Listen(addrs[i])
				if err != nil {
					t.Fatal(err)
				}
				srv, err := NewServer(cfg, p, i+1, lis, WithServerEviction(time.Hour))
				if err != nil {
					t.Fatal(err)
				}
				servers[i] = srv
				t.Cleanup(srv.Close)
			}
			c, err := NewClient(cfg, p, addrs, net.Dial)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			ctx := context.Background()
			if _, err := c.Write(ctx, "k", 1, "v"); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 5; i++ {
				if _, err := c.Read(ctx, "k", 1); err != nil {
					t.Fatalf("read %d: %v", i, err)
				}
			}
			waitForValue(t, servers[0], "k", "v")
			servers[0].Sweep()
			if n := servers[0].Sweep(); n != 1 {
				t.Fatalf("idle %s key not evicted (swept %d); short-round ops may be leaking open records", p.Name(), n)
			}
		})
	}
}

// waitForValue polls until the replica stores data under key — i.e. the
// write's final round has been handled there, not just at a quorum.
func waitForValue(t *testing.T, s *Server, key, data string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if v, ok := s.Value(key); ok && v.Data == data {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica %s never stored %q under %q", s.ID(), data, key)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServerEviction drives keys through a replica, sweeps them idle, and
// checks (a) idle keys go, (b) keys with a mid-flight multi-round
// operation stay, (c) an evicted key is repopulated by normal protocol
// traffic.
func TestServerEviction(t *testing.T) {
	cfg := quorum.Config{S: 3, T: 1, R: 1, W: 1}
	net := NewChanNetwork()
	servers := make([]*Server, cfg.S)
	addrs := make([]string, cfg.S)
	for i := 0; i < cfg.S; i++ {
		addrs[i] = fmt.Sprintf("s%d", i+1)
		lis, err := net.Listen(addrs[i])
		if err != nil {
			t.Fatal(err)
		}
		// Enormous TTL: the ticking sweeper never fires, the test drives
		// Sweep() by hand.
		srv, err := NewServer(cfg, protocols.Must("W2R2"), i+1, lis, WithServerEviction(time.Hour))
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = srv
		t.Cleanup(srv.Close)
	}
	c, err := NewClient(cfg, protocols.Must("W2R2"), addrs, net.Dial)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()

	if _, err := c.Write(ctx, "idle", 1, "v1"); err != nil {
		t.Fatal(err)
	}
	// The write returns on a 2-of-3 quorum; wait for its final round to
	// land on s1 too, or the sweep would (correctly) hold the key as
	// mid-flight.
	waitForValue(t, servers[0], "idle", "v1")
	if n := servers[0].KeyCount(); n != 1 {
		t.Fatalf("KeyCount = %d, want 1", n)
	}
	// Two sweeps pass a full idle window: the key must be evicted.
	if n := servers[0].Sweep(); n != 0 {
		t.Fatalf("first sweep evicted %d keys, want 0 (not yet a full window idle)", n)
	}
	if n := servers[0].Sweep(); n != 1 {
		t.Fatalf("second sweep evicted %d keys, want 1", n)
	}
	if n := servers[0].KeyCount(); n != 0 {
		t.Fatalf("KeyCount after eviction = %d, want 0", n)
	}

	// Mid-flight guard: deliver only round 1 of a write directly, then
	// sweep twice — the key must survive while the op is open.
	conn, err := net.Dial(addrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.Send(proto.Envelope{
		From: types.Writer(1), To: servers[0].ID(), Key: "inflight", OpID: 99, Round: 1,
		Payload: proto.Query{},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Recv(); err != nil { // round-1 reply proves it was handled
		t.Fatal(err)
	}
	servers[0].Sweep()
	if n := servers[0].Sweep(); n != 0 {
		t.Fatalf("sweep evicted %d keys, want 0 (operation mid-flight)", n)
	}
	if n := servers[0].KeyCount(); n != 1 {
		t.Fatalf("mid-flight key evicted (KeyCount %d)", n)
	}
	// The final round closes the op; after a fresh idle window it goes.
	if err := conn.Send(proto.Envelope{
		From: types.Writer(1), To: servers[0].ID(), Key: "inflight", OpID: 99, Round: 2,
		Payload: proto.Update{Val: &types.Value{Tag: types.Tag{TS: 1, WID: types.Writer(1)}, Data: "x"}},
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Recv(); err != nil {
		t.Fatal(err)
	}
	servers[0].Sweep()
	if n := servers[0].Sweep(); n != 1 {
		t.Fatalf("sweep after final round evicted %d keys, want 1", n)
	}

	// Evicted state is repopulated by normal traffic, like a restarted
	// replica: a write and read of the evicted key still work and agree.
	for i := range servers {
		for servers[i].Sweep() > 0 {
		}
	}
	if _, err := c.Write(ctx, "idle", 1, "v2"); err != nil {
		t.Fatal(err)
	}
	if v, err := c.Read(ctx, "idle", 1); err != nil || v.Data != "v2" {
		t.Fatalf("read after eviction: %v %v", v, err)
	}
}
