// Package transport runs the register protocols over real connections.
//
// It is the one round engine and replica loop every backend runs, over
// a small Conn/Listener abstraction with two implementations —
//
//   - in-process (NewChanNetwork): connections are paired channels, the
//     reliable links of the system model. netsim.MultiLive, tests and
//     examples run whole "clusters" in one process with zero sockets.
//   - TCP (ListenTCP/DialTCP): length-prefixed frames via the proto codec,
//     so replicas and clients can be separate processes on a real network.
//     A connection starts no goroutine of its own: its owner's receive
//     loop reads, and each SendBatch is one write, made on the sender's
//     goroutine and bounded by a send timeout.
//
// On top of the abstraction sit Server — one replica of a register fleet
// serving every key from sharded per-key protocol state, the process
// cmd/regserver hosts — and Client, which drives the round-based client
// operations against the fleet with reconnect-and-backoff and
// context-based deadlines.
//
// The unit moved is always a proto.Envelope: key-tagged, operation- and
// round-correlated. A register cluster therefore behaves identically over channels and over
// TCP; the loopback tests in this package prove the composition atomic
// with the internal/atomicity checker.
package transport

import (
	"errors"

	"fastreg/internal/proto"
)

// ErrClosed is returned by operations on a closed connection, listener,
// client or server.
var ErrClosed = errors.New("transport: closed")

// Conn is one bidirectional, ordered, reliable envelope stream — the link
// abstraction of the system model (Fig 1). Send and Recv are safe for
// concurrent use; envelopes sent on one side arrive on the other in order
// until either side closes, after which both return ErrClosed (or the
// underlying transport error).
type Conn interface {
	// Send hands the envelope to the transport for delivery. It may block
	// while the link is full (over TCP, for at most a bounded send
	// timeout) but never for delivery acknowledgement.
	Send(proto.Envelope) error
	// SendBatch queues every envelope for delivery as one multi-envelope
	// frame — the message-level coalescing that lets concurrent rounds
	// share framing, encoding and flushes. Ownership of the slice
	// transfers to the connection; the caller must not reuse it. Envelope
	// order within the batch is preserved.
	SendBatch([]proto.Envelope) error
	// Recv blocks until the next envelope arrives or the connection dies.
	// Envelopes from a batch frame are delivered one at a time, in order.
	Recv() (proto.Envelope, error)
	// RecvBatch blocks like Recv but returns every envelope of the next
	// arriving frame at once (len ≥ 1), so a server can drain a client's
	// coalesced sends in one pass. Ownership of the returned slice passes
	// to the caller; receive loops that are done with every envelope may
	// recycle it via proto.PutEnvs (implementations fill pooled slabs, so
	// steady streams then stop allocating envelope storage per frame).
	RecvBatch() ([]proto.Envelope, error)
	// Close tears the connection down; pending Sends/Recvs unblock with
	// errors.
	Close() error
}

// Listener accepts inbound connections at an address.
type Listener interface {
	Accept() (Conn, error)
	Close() error
	// Addr is the bound address in dialable form (resolves ":0" binds).
	Addr() string
}

// DialFunc opens one connection to an address. Implementations:
// DialTCP, and (*ChanNetwork).Dial for in-process clusters.
type DialFunc func(addr string) (Conn, error)
