package transport

import (
	"errors"
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
	// Sends eventually fail too (the writer goroutine notices the dead
	// socket once the kernel does).
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if err := client.Send(testEnvelope(1)); err != nil {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("Send never failed after peer close")
}
