package transport

import (
	"fmt"
	"sync"

	"fastreg/internal/proto"
)

// chanConnBuf bounds each direction of an in-process connection. Sends
// block when the peer is this far behind — the same backpressure a TCP
// socket buffer applies.
const chanConnBuf = 256

// ChanNetwork is the in-process transport: a namespace of listeners whose
// connections are paired envelope channels. It gives tests and examples
// the exact deployment shape of a TCP cluster — separate Server and
// Client values wired only through Conn — without any sockets.
type ChanNetwork struct {
	mu        sync.Mutex
	listeners map[string]*chanListener // guardedby: mu
}

// NewChanNetwork creates an empty in-process network.
func NewChanNetwork() *ChanNetwork {
	return &ChanNetwork{listeners: make(map[string]*chanListener)}
}

// Listen binds a listener at addr (any non-empty string).
func (n *ChanNetwork) Listen(addr string) (Listener, error) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.listeners[addr]; ok {
		return nil, fmt.Errorf("transport: address %q already bound", addr)
	}
	l := &chanListener{
		net:    n,
		addr:   addr,
		accept: make(chan *chanConn),
		closed: make(chan struct{}),
	}
	n.listeners[addr] = l
	return l, nil
}

// Dial connects to the listener bound at addr. It implements DialFunc.
func (n *ChanNetwork) Dial(addr string) (Conn, error) {
	n.mu.Lock()
	l, ok := n.listeners[addr]
	n.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("transport: dial %q: connection refused", addr)
	}
	client, server := chanPipe()
	select {
	case l.accept <- server:
		return client, nil
	case <-l.closed:
		return nil, fmt.Errorf("transport: dial %q: connection refused", addr)
	}
}

type chanListener struct {
	net    *ChanNetwork
	addr   string
	accept chan *chanConn
	closed chan struct{}
	once   sync.Once
}

func (l *chanListener) Accept() (Conn, error) {
	select {
	case c := <-l.accept:
		return c, nil
	case <-l.closed:
		return nil, ErrClosed
	}
}

func (l *chanListener) Addr() string { return l.addr }

func (l *chanListener) Close() error {
	l.once.Do(func() {
		close(l.closed)
		l.net.mu.Lock()
		if l.net.listeners[l.addr] == l {
			delete(l.net.listeners, l.addr)
		}
		l.net.mu.Unlock()
	})
	return nil
}

// chanConn is one endpoint of an in-process connection: it sends on out
// and receives on in; its peer holds the channels swapped. The channels
// carry whole batches — a Send is a batch of one — so the in-process
// transport pays the same per-batch (not per-envelope) channel cost the
// TCP transport pays in frames, keeping in-process and TCP benchmarks
// comparable. closed is shared so either side's Close kills both
// directions at once, like a socket teardown.
type chanConn struct {
	in     <-chan []proto.Envelope
	out    chan<- []proto.Envelope
	closed chan struct{}
	once   *sync.Once

	// pending holds the undelivered tail of the last batch received, so
	// Recv can hand out one envelope at a time.
	pendMu  sync.Mutex
	pending []proto.Envelope // guardedby: pendMu
}

func chanPipe() (a, b *chanConn) {
	ab := make(chan []proto.Envelope, chanConnBuf)
	ba := make(chan []proto.Envelope, chanConnBuf)
	closed := make(chan struct{})
	once := &sync.Once{}
	a = &chanConn{in: ba, out: ab, closed: closed, once: once}
	b = &chanConn{in: ab, out: ba, closed: closed, once: once}
	return a, b
}

func (c *chanConn) Send(e proto.Envelope) error {
	return c.SendBatch(append(proto.GetEnvs(), e))
}

// SendBatch hands the batch to the peer over the pipe. Ownership of the
// slice transfers here (the Conn contract): on delivery it moves to the
// receiving side, and on a closed connection the slab is recycled — the
// same always-consumes behaviour as tcpConn.SendBatch, so callers can
// treat both transports identically.
func (c *chanConn) SendBatch(envs []proto.Envelope) error {
	if len(envs) == 0 {
		return nil
	}
	select {
	case <-c.closed:
		proto.PutEnvs(envs)
		return ErrClosed
	default:
	}
	select {
	case c.out <- envs:
		return nil
	case <-c.closed:
		proto.PutEnvs(envs)
		return ErrClosed
	}
}

func (c *chanConn) Recv() (proto.Envelope, error) {
	c.pendMu.Lock()
	defer c.pendMu.Unlock()
	if len(c.pending) == 0 {
		batch, err := c.recvBatchLocked()
		if err != nil {
			return proto.Envelope{}, err
		}
		c.pending = batch
	}
	e := c.pending[0]
	c.pending = c.pending[1:]
	return e, nil
}

func (c *chanConn) RecvBatch() ([]proto.Envelope, error) {
	c.pendMu.Lock()
	defer c.pendMu.Unlock()
	if len(c.pending) > 0 {
		batch := c.pending
		c.pending = nil
		return batch, nil
	}
	batch, err := c.recvBatchLocked()
	if err != nil {
		return nil, err
	}
	// Opportunistically drain batches already queued behind the first —
	// the same receive-side coalescing the TCP conn gets from its read
	// buffer, so both transports hand servers comparably sized batches.
	for len(batch) < proto.MaxBatchEnvelopes {
		select {
		case more := <-c.in:
			batch = append(batch, more...)
			proto.PutEnvs(more) // contents copied into batch; recycle the slab
		default:
			return batch, nil
		}
	}
	return batch, nil
}

func (c *chanConn) recvBatchLocked() ([]proto.Envelope, error) {
	// Drain batches that arrived before the close: a real socket delivers
	// bytes already in its receive buffer.
	select {
	case b := <-c.in:
		return b, nil
	default:
	}
	select {
	case b := <-c.in:
		return b, nil
	case <-c.closed:
		return nil, ErrClosed
	}
}

func (c *chanConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}
