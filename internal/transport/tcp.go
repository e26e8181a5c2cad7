package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"fastreg/internal/proto"
)

// tcpSendBuf bounds the per-connection outbound queue (frames, not
// bytes). Senders briefly block when the writer goroutine falls this far
// behind — normal for bursts — but give up after tcpSendTimeout: a peer
// that hasn't drained a full queue in seconds is dead, and a quorum
// client must fail the connection rather than wedge forever behind it.
const (
	tcpSendBuf     = 256
	tcpSendTimeout = 5 * time.Second
)

// tcpDialTimeout bounds DialTCP: a black-holed address (firewalled, dead
// host — no RST) must fail in bounded time, not the OS's multi-minute
// connect timeout.
const tcpDialTimeout = 3 * time.Second

// Adaptive flush deferral: after the writer goroutine drains its queue,
// senders that are runnable RIGHT NOW may be one scheduler slot away
// from enqueueing more frames — flushing immediately would pay one
// write(2) for them and another for us. The writer therefore yields up
// to maxFlushDefers times before flushing, as long as the accumulated
// buffer stays under flushDeferBudget (past that, latency and memory say
// ship it) and each yield actually produced more frames (an empty queue
// after a yield means nobody was waiting — flush at once, so a lonely
// request pays one yield, not a timer). This is the syscall-bound tail
// the profile left after message batching: the same accumulation the
// client's flusher gets from its Gosched, applied at the connection.
const (
	flushDeferBudget = 32 << 10
	maxFlushDefers   = 2
)

// ListenTCP binds a TCP listener at addr ("host:port"; ":0" picks a free
// port, readable back via Addr).
func ListenTCP(addr string) (Listener, error) {
	nl, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &tcpListener{nl: nl}, nil
}

// DialTCP opens one TCP connection to addr, failing after a bounded
// timeout. It implements DialFunc; reconnection policy lives in Client,
// not here.
func DialTCP(addr string) (Conn, error) {
	nc, err := net.DialTimeout("tcp", addr, tcpDialTimeout)
	if err != nil {
		return nil, err
	}
	return newTCPConn(nc), nil
}

// WrapNetConn frames envelopes over an arbitrary net.Conn with the same
// codec, queueing and batching behavior DialTCP's connections get — the
// seam that lets middleboxes (internal/faultnet's fault-injecting shim)
// sit between the framing layer and the socket.
func WrapNetConn(nc net.Conn) Conn { return newTCPConn(nc) }

type tcpListener struct {
	nl net.Listener
}

func (l *tcpListener) Accept() (Conn, error) {
	nc, err := l.nl.Accept()
	if err != nil {
		return nil, err
	}
	return newTCPConn(nc), nil
}

func (l *tcpListener) Addr() string { return l.nl.Addr().String() }
func (l *tcpListener) Close() error { return l.nl.Close() }

// tcpConn frames envelopes onto a TCP stream with the proto codec. Reads
// happen on the caller's goroutine (Client and Server each run one
// receive loop per connection); writes go through an outbound queue
// drained by a single writer goroutine that coalesces every queued frame
// into one buffered flush — concurrent operations multiplexed over the
// same connection share syscalls instead of issuing one write(2) each.
// SendBatch additionally coalesces at the message level: the whole batch
// becomes one proto batch frame, sharing a single header and one encode
// buffer, and RecvBatch hands the peer the decoded batch in one pass.
// Frame buffers are pooled (proto.GetBuf/PutBuf), so a steady stream
// stops allocating per message.
type tcpConn struct {
	nc net.Conn
	br *bufio.Reader

	out    chan []byte
	closed chan struct{}
	once   sync.Once

	errMu  sync.Mutex
	wrErr  error // first writer-goroutine error, reported by later Sends
	wrIdle sync.WaitGroup

	// recvMu serializes frame reads; pending holds the undelivered tail
	// of the last batch frame so Recv yields one envelope at a time;
	// rdErr remembers a decode failure hit while draining buffered frames.
	recvMu  sync.Mutex
	pending []proto.Envelope
	rdErr   error
}

func newTCPConn(nc net.Conn) *tcpConn {
	c := &tcpConn{
		nc:     nc,
		br:     bufio.NewReaderSize(nc, 64<<10),
		out:    make(chan []byte, tcpSendBuf),
		closed: make(chan struct{}),
	}
	c.wrIdle.Add(1)
	go c.writeLoop()
	return c
}

// writeLoop drains the outbound queue, writing every frame already
// queued — plus, via the adaptive deferral, the frames concurrent
// senders are about to queue — before flushing once: N concurrent ops
// cost ~1 flush, not N.
func (c *tcpConn) writeLoop() {
	defer c.wrIdle.Done()
	bw := bufio.NewWriterSize(c.nc, 64<<10)
	// writeFrame buffers one frame, recycling its pooled buffer; false
	// means the connection failed and the loop must exit.
	writeFrame := func(b []byte) bool {
		_, err := bw.Write(b)
		proto.PutBuf(b)
		if err != nil {
			c.fail(err)
			return false
		}
		return true
	}
	// c.out is never closed; teardown is signalled via c.closed only, so
	// Send never races a channel close.
	for {
		select {
		case <-c.closed:
			return
		case b := <-c.out:
			if !writeFrame(b) {
				return
			}
			for defers := 0; ; {
			coalesce:
				for {
					select {
					case b := <-c.out:
						if !writeFrame(b) {
							return
						}
					default:
						break coalesce
					}
				}
				// Queue empty. Defer the flush while the accumulation is
				// small and yields keep producing frames (see the
				// flushDeferBudget comment).
				if bw.Buffered() >= flushDeferBudget || defers >= maxFlushDefers {
					break
				}
				defers++
				runtime.Gosched()
				if len(c.out) == 0 {
					break // nobody was waiting; don't add latency
				}
			}
			if err := bw.Flush(); err != nil {
				c.fail(err)
				return
			}
		}
	}
}

// fail records the writer's error and tears the connection down so the
// peer and any blocked Recv notice.
func (c *tcpConn) fail(err error) {
	c.errMu.Lock()
	if c.wrErr == nil {
		c.wrErr = err
	}
	c.errMu.Unlock()
	c.Close()
}

// Send queues the frame, blocking briefly for backpressure but never
// indefinitely: if the outbound queue stays full past tcpSendTimeout the
// writer goroutine is wedged behind a dead socket the kernel hasn't
// noticed, and the caller should treat the connection as failed — the
// correct reading for a quorum system, where a server that stopped
// draining is indistinguishable from a crashed one.
func (c *tcpConn) Send(e proto.Envelope) error {
	b, err := proto.AppendEnvelope(proto.GetBuf(), e)
	if err != nil {
		return err
	}
	return c.enqueue(b)
}

// SendBatch encodes the whole batch as one multi-envelope frame sharing a
// single header and one pooled buffer. A batch of one stays a plain
// single frame (the canonical minimal encoding); a batch too large for
// one frame is split by count, and a batch whose bytes overflow the frame
// bound degrades to per-envelope sends.
//
// Ownership of envs transfers here (the Conn contract) and the encode
// consumes it synchronously, so the slab is recycled on return — the
// sender-side half of the envelope-slab cycle (GetEnvs queues in, encoded
// bytes out).
func (c *tcpConn) SendBatch(envs []proto.Envelope) error {
	err := c.sendBatch(envs)
	proto.PutEnvs(envs)
	return err
}

func (c *tcpConn) sendBatch(envs []proto.Envelope) error {
	for len(envs) > proto.MaxBatchEnvelopes {
		if err := c.sendBatch(envs[:proto.MaxBatchEnvelopes]); err != nil {
			return err
		}
		envs = envs[proto.MaxBatchEnvelopes:]
	}
	switch len(envs) {
	case 0:
		return nil
	case 1:
		return c.Send(envs[0])
	}
	b, err := proto.AppendBatch(proto.GetBuf(), envs)
	if errors.Is(err, proto.ErrOversize) {
		for _, e := range envs {
			if err := c.Send(e); err != nil {
				return err
			}
		}
		return nil
	}
	if err != nil {
		return err
	}
	return c.enqueue(b)
}

// enqueue hands one encoded frame to the writer goroutine, applying the
// bounded backpressure policy below.
func (c *tcpConn) enqueue(b []byte) error {
	select {
	case <-c.closed:
		proto.PutBuf(b)
		return c.sendErr()
	default:
	}
	select {
	case c.out <- b:
		return nil
	case <-c.closed:
		proto.PutBuf(b)
		return c.sendErr()
	default:
	}
	// Slow path: queue full. Wait bounded for the writer to drain.
	timer := time.NewTimer(tcpSendTimeout)
	defer timer.Stop()
	select {
	case c.out <- b:
		return nil
	case <-c.closed:
		proto.PutBuf(b)
		return c.sendErr()
	case <-timer.C:
		proto.PutBuf(b)
		return fmt.Errorf("transport: %d frames queued and peer not draining", tcpSendBuf)
	}
}

func (c *tcpConn) sendErr() error {
	c.errMu.Lock()
	defer c.errMu.Unlock()
	if c.wrErr != nil {
		return c.wrErr
	}
	return ErrClosed
}

func (c *tcpConn) Recv() (proto.Envelope, error) {
	c.recvMu.Lock()
	defer c.recvMu.Unlock()
	if len(c.pending) == 0 {
		if err := c.rdErr; err != nil {
			return proto.Envelope{}, err
		}
		envs, err := proto.ReadFrames(c.br)
		if err != nil {
			return proto.Envelope{}, err
		}
		c.pending = envs
	}
	e := c.pending[0]
	c.pending = c.pending[1:]
	return e, nil
}

// RecvBatch returns the next frame's envelopes plus — opportunistically —
// those of every further frame already sitting complete in the read
// buffer. Only the first frame may block; the drain consumes bytes the
// kernel has already delivered, so a loaded connection hands the caller
// one large batch per wake-up at no added latency.
//
// The returned slice is a pooled slab (proto.GetEnvs) filled via the
// appending decoders: ownership passes to the caller, who should recycle
// it with proto.PutEnvs once every envelope is consumed — the receive
// loops of Client and Server do, closing the zero-alloc decode cycle.
func (c *tcpConn) RecvBatch() ([]proto.Envelope, error) {
	c.recvMu.Lock()
	defer c.recvMu.Unlock()
	if len(c.pending) > 0 {
		envs := c.pending
		c.pending = nil
		return envs, nil
	}
	if err := c.rdErr; err != nil {
		return nil, err
	}
	envs, err := proto.ReadFramesInto(c.br, proto.GetEnvs())
	if err != nil {
		proto.PutEnvs(envs)
		return nil, err
	}
	for len(envs) < proto.MaxBatchEnvelopes {
		if !c.frameBuffered() {
			break
		}
		more, err := proto.ReadFramesInto(c.br, envs)
		if err != nil {
			// The stream is already broken mid-buffer; deliver what was
			// drained and surface the error on the next call.
			c.rdErr = err
			break
		}
		envs = more
	}
	return envs, nil
}

// frameBuffered reports whether the read buffer already holds one
// complete frame. Oversize or corrupt headers return false and are left
// for the blocking path to turn into a proper error.
func (c *tcpConn) frameBuffered() bool {
	if c.br.Buffered() < 4 {
		return false
	}
	hdr, err := c.br.Peek(4)
	if err != nil {
		return false
	}
	body := binary.BigEndian.Uint32(hdr)
	if body > proto.MaxBatchFrame {
		return false
	}
	return c.br.Buffered() >= 4+int(body)
}

func (c *tcpConn) Close() error {
	var err error
	c.once.Do(func() {
		close(c.closed)
		err = c.nc.Close()
	})
	return err
}
