package transport

import (
	"errors"
	"fmt"
	"net"
	"reflect"
	"strings"
	"testing"
	"time"

	"fastreg/internal/proto"
	"fastreg/internal/types"
)

func testEnvelope(i int) proto.Envelope {
	return proto.Envelope{
		From:    types.Writer(1),
		To:      types.Server(2),
		Key:     "k",
		OpID:    uint64(i),
		Round:   1,
		Payload: proto.Update{Val: &types.Value{Tag: types.Tag{TS: int64(i), WID: types.Writer(1)}, Data: "v"}},
	}
}

// exerciseConn pushes n envelopes in both directions and checks order and
// content survive the trip.
func exerciseConn(t *testing.T, a, b Conn, n int) {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if err := a.Send(testEnvelope(i)); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for i := 0; i < n; i++ {
		env, err := b.Recv()
		if err != nil {
			t.Fatalf("recv %d: %v", i, err)
		}
		if want := testEnvelope(i); !reflect.DeepEqual(env, want) {
			t.Fatalf("recv %d: got %+v want %+v", i, env, want)
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("send: %v", err)
	}
	// Replies flow the other way on the same connection.
	reply := proto.Envelope{From: types.Server(2), To: types.Writer(1), Key: "k", OpID: 7, Round: 1, IsReply: true, Payload: proto.UpdateAck{}}
	if err := b.Send(reply); err != nil {
		t.Fatalf("reply send: %v", err)
	}
	env, err := a.Recv()
	if err != nil {
		t.Fatalf("reply recv: %v", err)
	}
	if !reflect.DeepEqual(env, reply) {
		t.Fatalf("reply: got %+v want %+v", env, reply)
	}
}

func TestChanConnRoundTrip(t *testing.T) {
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
	server := <-accepted
	exerciseConn(t, client, server, 200)
	client.Close()
	if _, err := server.Recv(); err == nil {
		t.Fatal("Recv on closed connection should fail")
	}
}

func TestChanDialRefused(t *testing.T) {
	net := NewChanNetwork()
	if _, err := net.Dial("nobody"); err == nil {
		t.Fatal("dialing an unbound address should fail")
	}
	lis, _ := net.Listen("s1")
	lis.Close()
	if _, err := net.Dial("s1"); err == nil {
		t.Fatal("dialing a closed listener should fail")
	}
}

func TestTCPConnRoundTrip(t *testing.T) {
	lis, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	if strings.HasSuffix(lis.Addr(), ":0") {
		t.Fatalf("Addr %q did not resolve the port", lis.Addr())
	}
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
	exerciseConn(t, client, server, 500)

	// A payload near MaxFrame crosses intact; one over it is rejected at
	// Send (the codec refuses to build the frame).
	big := testEnvelope(0)
	big.Payload = proto.Update{Val: &types.Value{Data: strings.Repeat("x", 1<<19)}}
	if err := client.Send(big); err != nil {
		t.Fatalf("big send: %v", err)
	}
	if env, err := server.Recv(); err != nil || len(env.Payload.(proto.Update).Val.Data) != 1<<19 {
		t.Fatalf("big recv: %v", err)
	}
	big.Payload = proto.Update{Val: &types.Value{Data: strings.Repeat("x", proto.MaxFrame+1)}}
	if err := client.Send(big); !errors.Is(err, proto.ErrOversize) {
		t.Fatalf("oversize send: got %v, want ErrOversize", err)
	}
}

func TestTCPConnPeerClose(t *testing.T) {
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
	server.Close()
	if _, err := client.Recv(); err == nil {
		t.Fatal("Recv after peer close should fail")
	}
	// Sends eventually fail too: a write fails once the kernel has seen
	// the peer's reset.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if err := client.Send(testEnvelope(1)); err != nil {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("Send never failed after peer close")
}

// A peer that accepts and never reads fills the socket buffers; Sends
// must then fail within tcpSendTimeout instead of blocking forever.
func TestTCPConnStalledPeer(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		nc, err := lis.Accept()
		if err != nil {
			t.Error(err)
			close(accepted)
			return
		}
		accepted <- nc
	}()
	client, err := DialTCP(lis.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	if peer := <-accepted; peer != nil {
		defer peer.Close() // held open, never read
	}

	big := testEnvelope(0)
	big.Payload = proto.Update{Val: &types.Value{Data: strings.Repeat("x", 64<<10)}}
	start := time.Now()
	failed := make(chan error, 1)
	go func() {
		for {
			if err := client.Send(big); err != nil {
				failed <- err
				return
			}
		}
	}()
	select {
	case err := <-failed:
		t.Logf("Send failed after %v: %v", time.Since(start).Round(time.Millisecond), err)
	case <-time.After(tcpSendTimeout + 2*time.Second):
		t.Fatalf("Send to a peer that never reads did not fail within %v", tcpSendTimeout+2*time.Second)
	}
}

// Several goroutines sharing one connection must not interleave their
// frames: the peer receives every envelope intact, each sender's in the
// order it sent them.
func TestTCPConnConcurrentSenders(t *testing.T) {
	const senders, batches = 8, 200
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
			close(accepted)
			return
		}
		accepted <- c
	}()
	client, err := DialTCP(lis.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer client.Close()
	server := <-accepted
	if server == nil {
		t.FailNow()
	}
	defer server.Close()

	env := func(g, seq int) proto.Envelope {
		return proto.Envelope{
			From:    types.Writer(g + 1),
			To:      types.Server(1),
			Key:     "k",
			OpID:    uint64(seq),
			Round:   1,
			Payload: proto.Update{Val: &types.Value{Tag: types.Tag{TS: int64(seq), WID: types.Writer(g + 1)}, Data: fmt.Sprintf("%d/%d", g, seq)}},
		}
	}
	size := func(g, i int) int { return 1 + (g+i)%5 }
	total := 0
	for g := 0; g < senders; g++ {
		go func() {
			seq := 0
			for i := 0; i < batches; i++ {
				envs := proto.GetEnvs()
				for range size(g, i) {
					envs = append(envs, env(g, seq))
					seq++
				}
				if err := client.SendBatch(envs); err != nil {
					t.Errorf("sender %d: %v", g, err)
					client.Close() // unblocks the receive loop below
					return
				}
			}
		}()
		for i := 0; i < batches; i++ {
			total += size(g, i)
		}
	}
	next := make([]int, senders)
	for n := 0; n < total; n++ {
		got, err := server.Recv()
		if err != nil {
			t.Fatalf("recv %d of %d: %v", n, total, err)
		}
		g := got.From.Index - 1
		if g < 0 || g >= senders {
			t.Fatalf("recv %d: unknown sender %v", n, got.From)
		}
		if want := env(g, next[g]); !reflect.DeepEqual(got, want) {
			t.Fatalf("recv %d: got %+v want %+v", n, got, want)
		}
		next[g]++
	}
}
