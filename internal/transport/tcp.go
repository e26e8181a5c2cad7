package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"time"

	"fastreg/internal/proto"
)

// tcpSendTimeout bounds one SendBatch's write. A peer whose socket has
// not taken a batch's bytes in seconds is dead, and a quorum client must
// fail the connection rather than wedge forever behind it.
const tcpSendTimeout = 5 * time.Second

// tcpDialTimeout bounds DialTCP: a black-holed address (firewalled, dead
// host — no RST) must fail in bounded time, not the OS's multi-minute
// connect timeout.
const tcpDialTimeout = 3 * time.Second

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
// codec and batching DialTCP's connections get: one write per SendBatch,
// made on the sender's goroutine and bounded by tcpSendTimeout. It is
// the seam that lets middleboxes (internal/faultnet's fault-injecting
// shim) sit between the framing layer and the socket.
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
// and writes both happen on the caller's goroutine: Client and Server
// each run one receive loop per connection, and SendBatch encodes its
// whole batch into one pooled buffer and writes it in one call. The
// coalescing happens above the connection, in the Client link's flusher
// and the Server's per-batch replies, so each of those connections has
// one sender and each batch costs one write(2). A batch becomes one
// proto batch frame, sharing a single header, and RecvBatch hands the
// peer the decoded batch in one pass. Frame buffers are pooled
// (proto.GetBuf/PutBuf), so a steady stream stops allocating per message.
type tcpConn struct {
	nc   net.Conn
	br   *bufio.Reader
	once sync.Once

	// wrMu keeps each batch's bytes contiguous on the stream.
	wrMu sync.Mutex

	// recvMu serializes frame reads; pending holds the undelivered tail
	// of the last batch frame so Recv yields one envelope at a time;
	// rdErr remembers a decode failure hit while draining buffered frames.
	recvMu  sync.Mutex
	pending []proto.Envelope
	rdErr   error
}

func newTCPConn(nc net.Conn) *tcpConn {
	return &tcpConn{nc: nc, br: bufio.NewReaderSize(nc, 64<<10)}
}

// Send is SendBatch of one envelope.
func (c *tcpConn) Send(e proto.Envelope) error {
	return c.SendBatch(append(proto.GetEnvs(), e))
}

// SendBatch encodes the batch into one pooled buffer and writes it on the
// caller's goroutine, waiting at most tcpSendTimeout for the socket to
// take it. A batch of one stays a plain single frame (the canonical
// minimal encoding); a batch too large for one frame is split by count,
// and a batch whose bytes overflow the frame bound degrades to
// per-envelope frames. An envelope that fails to encode is reported
// after the frames encoded before it are written. A failed write closes
// the connection, so the receive loop and the link's redial both see it.
//
// Ownership of envs transfers here (the Conn contract) and the encode
// consumes it synchronously, so the slab is recycled on return — the
// sender-side half of the envelope-slab cycle (GetEnvs queues in, encoded
// bytes out).
func (c *tcpConn) SendBatch(envs []proto.Envelope) error {
	b, err := appendFrames(proto.GetBuf(), envs)
	proto.PutEnvs(envs)
	if len(b) > 0 {
		if werr := c.write(b); werr != nil {
			err = werr
		}
	}
	proto.PutBuf(b)
	return err
}

// appendFrames appends envs to b: one batch frame per MaxBatchEnvelopes,
// a plain frame for a lone envelope or for each envelope of a batch too
// large for MaxBatchFrame. On error b holds the frames appended before
// the failed one.
func appendFrames(b []byte, envs []proto.Envelope) ([]byte, error) {
	for len(envs) > 0 {
		n := min(len(envs), proto.MaxBatchEnvelopes)
		if n > 1 {
			nb, err := proto.AppendBatch(b, envs[:n])
			if err == nil {
				b, envs = nb, envs[n:]
				continue
			}
			if !errors.Is(err, proto.ErrOversize) {
				return b, err
			}
		}
		for _, e := range envs[:n] {
			nb, err := proto.AppendEnvelope(b, e)
			if err != nil {
				return b, err
			}
			b = nb
		}
		envs = envs[n:]
	}
	return b, nil
}

// write puts b on the stream under wrMu. A write that fails or times out
// may have left a torn frame behind, so it closes the connection.
func (c *tcpConn) write(b []byte) error {
	c.wrMu.Lock()
	defer c.wrMu.Unlock()
	err := c.nc.SetWriteDeadline(time.Now().Add(tcpSendTimeout))
	if err == nil {
		_, err = c.nc.Write(b)
	}
	if err != nil {
		c.Close()
	}
	return err
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
	c.once.Do(func() { err = c.nc.Close() })
	return err
}
