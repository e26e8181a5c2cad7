package transport

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"fastreg/internal/atomicity"
	"fastreg/internal/mwabd"
	"fastreg/internal/quorum"
	"fastreg/internal/register"
	"fastreg/internal/types"
)

// startTCPCluster boots S replica servers on loopback TCP and returns
// them with their dial addresses.
func startTCPCluster(t testing.TB, cfg quorum.Config, p register.Protocol, sopts ...ServerOption) ([]*Server, []string) {
	t.Helper()
	servers := make([]*Server, cfg.S)
	addrs := make([]string, cfg.S)
	for i := 0; i < cfg.S; i++ {
		lis, err := ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv, err := NewServer(cfg, p, i+1, lis, sopts...)
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = srv
		addrs[i] = srv.Addr()
		t.Cleanup(srv.Close)
	}
	return servers, addrs
}

// runClusterWorkload drives nClients concurrent client processes (each
// its own Client — its own connections — hosting writer i and reader i)
// through a mixed read/write workload over several keys, with an optional
// barrier action in the middle. All Clients share one Registry so the
// combined per-key histories live in one clock domain for the checker.
func runClusterWorkload(t *testing.T, cfg quorum.Config, addrs []string, dial DialFunc, nClients, opsPerHalf int, atBarrier func(), copts ...ClientOption) *Registry {
	t.Helper()
	reg := NewRegistry(0)
	p := mwabd.New()
	keys := []string{"alpha", "beta", "gamma"}
	clients := make([]*Client, nClients)
	for i := range clients {
		c, err := NewClient(cfg, p, addrs, dial, append([]ClientOption{WithRegistry(reg)}, copts...)...)
		if err != nil {
			t.Fatal(err)
		}
		clients[i] = c
		t.Cleanup(c.Close)
	}

	half := func(c *Client, id, from, to int) error {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		for i := from; i < to; i++ {
			key := keys[(id+i)%len(keys)]
			if i%2 == 0 {
				if _, err := c.Write(ctx, key, id, fmt.Sprintf("c%d-%d", id, i)); err != nil {
					return fmt.Errorf("client %d write %d: %w", id, i, err)
				}
			} else {
				if _, err := c.Read(ctx, key, id); err != nil {
					return fmt.Errorf("client %d read %d: %w", id, i, err)
				}
			}
		}
		return nil
	}

	runHalf := func(from, to int) {
		t.Helper()
		var wg sync.WaitGroup
		errs := make(chan error, nClients)
		for i, c := range clients {
			wg.Add(1)
			go func(c *Client, id int) {
				defer wg.Done()
				if err := half(c, id, from, to); err != nil {
					errs <- err
				}
			}(c, i+1)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Fatal(err)
		}
	}

	runHalf(0, opsPerHalf)
	if atBarrier != nil {
		atBarrier()
	}
	runHalf(opsPerHalf, 2*opsPerHalf)
	return reg
}

func checkAtomic(t *testing.T, reg *Registry, wantOps int) {
	t.Helper()
	total := 0
	for _, key := range reg.Keys() {
		h := reg.History(key)
		if err := h.WellFormed(); err != nil {
			t.Fatalf("key %s: malformed history: %v", key, err)
		}
		res := atomicity.Check(h)
		if !res.Atomic {
			t.Fatalf("key %s: atomicity violated: %s", key, res)
		}
		total += len(h.Completed())
	}
	if total != wantOps {
		t.Fatalf("completed %d operations, want %d", total, wantOps)
	}
}

// TestClusterTCPAtomic is the headline integration test: a 3-server
// loopback TCP cluster driven by 4 concurrent client processes (8 client
// identities) completes a mixed workload whose per-key histories pass the
// atomicity checker.
func TestClusterTCPAtomic(t *testing.T) {
	cfg := quorum.Config{S: 3, T: 1, R: 4, W: 4}
	_, addrs := startTCPCluster(t, cfg, mwabd.New())
	const nClients, opsPerHalf = 4, 10
	reg := runClusterWorkload(t, cfg, addrs, DialTCP, nClients, opsPerHalf, nil)
	checkAtomic(t, reg, nClients*2*opsPerHalf)
}

// TestClusterTCPCrash kills one replica at the workload's midpoint: the
// remaining S−t quorum must keep completing every operation and the
// combined history must stay atomic.
func TestClusterTCPCrash(t *testing.T) {
	cfg := quorum.Config{S: 3, T: 1, R: 4, W: 4}
	servers, addrs := startTCPCluster(t, cfg, mwabd.New())
	const nClients, opsPerHalf = 4, 10
	reg := runClusterWorkload(t, cfg, addrs, DialTCP, nClients, opsPerHalf, func() {
		servers[2].Close() // kill s3 mid-workload
	})
	checkAtomic(t, reg, nClients*2*opsPerHalf)
}

// TestClusterChanAtomic runs the same cluster shape over the in-process
// channel transport — the two backends must be behaviorally identical.
func TestClusterChanAtomic(t *testing.T) {
	cfg := quorum.Config{S: 3, T: 1, R: 4, W: 4}
	net := NewChanNetwork()
	addrs := make([]string, cfg.S)
	for i := 0; i < cfg.S; i++ {
		addrs[i] = fmt.Sprintf("s%d", i+1)
		lis, err := net.Listen(addrs[i])
		if err != nil {
			t.Fatal(err)
		}
		srv, err := NewServer(cfg, mwabd.New(), i+1, lis)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(srv.Close)
	}
	const nClients, opsPerHalf = 4, 10
	reg := runClusterWorkload(t, cfg, addrs, net.Dial, nClients, opsPerHalf, nil)
	checkAtomic(t, reg, nClients*2*opsPerHalf)
}

// TestClientReconnect restarts a dead replica on the same port and checks
// the client's backoff dialer finds it again.
func TestClientReconnect(t *testing.T) {
	cfg := quorum.Config{S: 3, T: 1, R: 1, W: 1}
	servers, addrs := startTCPCluster(t, cfg, mwabd.New())
	c, err := NewClient(cfg, mwabd.New(), addrs, DialTCP)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	if _, err := c.Write(ctx, "k", 1, "before"); err != nil {
		t.Fatal(err)
	}

	servers[0].Close()
	// Operations keep completing against the surviving quorum while s1 is
	// down (sends to it fail fast into backoff).
	if _, err := c.Write(ctx, "k", 1, "during"); err != nil {
		t.Fatal(err)
	}

	lis, err := ListenTCP(addrs[0]) // same port: the replica "restarts"
	if err != nil {
		t.Skipf("could not rebind %s: %v", addrs[0], err)
	}
	srv, err := NewServer(cfg, mwabd.New(), 1, lis)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)

	deadline := time.Now().Add(10 * time.Second)
	for c.Connect() < cfg.S {
		if time.Now().After(deadline) {
			t.Fatal("client never reconnected to the restarted replica")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if _, err := c.Write(ctx, "k", 1, "after"); err != nil {
		t.Fatal(err)
	}
	// The restarted (empty) replica catches up through normal protocol
	// traffic: a read's write-back round re-populates it.
	if v, err := c.Read(ctx, "k", 1); err != nil || v.Data != "after" {
		t.Fatalf("read after restart: %v %v", v, err)
	}
	res := atomicity.Check(c.History("k"))
	if !res.Atomic {
		t.Fatalf("atomicity violated across restart: %s", res)
	}
}

// TestClientTimeout points a client at servers that accept connections
// but never reply: operations must end in register.ErrTimeout when their
// context expires instead of blocking forever.
func TestClientTimeout(t *testing.T) {
	cfg := quorum.Config{S: 3, T: 1, R: 1, W: 1}
	addrs := make([]string, cfg.S)
	for i := range addrs {
		lis, err := ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { lis.Close() })
		addrs[i] = lis.Addr()
		go func() {
			for {
				conn, err := lis.Accept()
				if err != nil {
					return
				}
				go func() {
					for {
						if _, err := conn.Recv(); err != nil {
							return
						}
					}
				}()
			}
		}()
	}
	c, err := NewClient(cfg, mwabd.New(), addrs, DialTCP)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err = c.Write(ctx, "k", 1, "v")
	if !errors.Is(err, register.ErrTimeout) {
		t.Fatalf("got %v, want ErrTimeout", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timeout took %v", elapsed)
	}
	// The op is recorded as failed, not completed — its effect is unknown.
	h := c.History("k")
	if n := len(h.Completed()); n != 0 {
		t.Fatalf("%d completed ops after timeout, want 0", n)
	}
	if n := len(h.Failed()); n != 1 {
		t.Fatalf("%d failed ops after timeout, want 1", n)
	}
}

// TestClientColdStartConcurrent hits a fresh client (no eager Connect)
// with many concurrent first operations: the racing lazy dials must be
// shared, not treated as per-caller failures — the regression was losers
// of the dial race seeing every link as "dial in progress" and erroring
// with 0 reachable servers.
func TestClientColdStartConcurrent(t *testing.T) {
	cfg := quorum.Config{S: 3, T: 1, R: 4, W: 4}
	_, addrs := startTCPCluster(t, cfg, mwabd.New())
	c, err := NewClient(cfg, mwabd.New(), addrs, DialTCP)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	errs := make(chan error, cfg.W+cfg.R)
	for w := 1; w <= cfg.W; w++ {
		go func(w int) {
			_, err := c.Write(ctx, "cold", w, "v")
			errs <- err
		}(w)
	}
	for r := 1; r <= cfg.R; r++ {
		go func(r int) {
			_, err := c.Read(ctx, "cold", r)
			errs <- err
		}(r)
	}
	for i := 0; i < cfg.W+cfg.R; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestClientAbandon crashes one server client-side, which abandons the
// client's link to it: the link goes down and stays down, and the remaining quorum carries operations — until a second
// abandoned link leaves fewer than a quorum, when rounds fail fast.
func TestClientAbandon(t *testing.T) {
	cfg := quorum.Config{S: 3, T: 1, R: 1, W: 1}
	_, addrs := startTCPCluster(t, cfg, mwabd.New())
	c, err := NewClient(cfg, mwabd.New(), addrs, DialTCP)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	c.Crash(2)
	c.Crash(2) // idempotent: still one link down
	if n := c.Connect(); n != cfg.S-1 {
		t.Fatalf("Connect() = %d after Crash, want %d", n, cfg.S-1)
	}
	if _, err := c.Write(ctx, "k", 1, "v"); err != nil {
		t.Fatal(err)
	}
	v, err := c.Read(ctx, "k", 1)
	if err != nil || v.Data != "v" {
		t.Fatalf("read: %v %v", v, err)
	}
	if v.Tag.WID != types.Writer(1) {
		t.Fatalf("tag %v", v.Tag)
	}
	c.Crash(3)
	if _, err := c.Read(ctx, "k", 1); !errors.Is(err, register.ErrProtocol) {
		t.Fatalf("read with two links abandoned = %v, want ErrProtocol", err)
	}
}
