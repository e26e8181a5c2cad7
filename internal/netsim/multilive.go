// Package netsim hosts the in-process fleet: MultiLive runs S
// transport.Servers and one transport.Client on a transport.ChanNetwork —
// the same round engine and replica loop a TCP deployment runs, with
// channels for sockets — so one fleet serves every key with O(servers)
// goroutines, and crashing a server kills it for all keys. The
// deterministic executions of the paper's model are package model's.
package netsim

import (
	"fastreg/internal/proto"
	"fastreg/internal/quorum"
	"fastreg/internal/register"
	"fastreg/internal/transport"
	"fastreg/internal/types"
)

// MultiLive is the in-process fleet: S transport.Servers listening on one
// transport.ChanNetwork plus one transport.Client dialled to all of them
// — a TCP deployment's shape with channels for sockets. The in-process
// backend therefore runs the same round engine, replica loop, batching,
// capture, audit epochs, eviction and metrics as the TCP one, configured
// by the same transport options. One fleet serves every key (key-tagged
// envelopes, sharded per-key state at each replica), so the goroutine
// count is O(servers) however many keys exist.
//
// The embedded Client supplies Write, Read, Histories, Keys, Sweep and
// the rest of the fastreg.Backend seam; MultiLive adds the replica side:
// Crash kills a replica for every key, Close stops the whole fleet.
type MultiLive struct {
	*transport.Client
	servers []*transport.Server

	wire  bool
	copts []transport.ClientOption
	sopts func(replica int) []transport.ServerOption
}

// MultiOption configures a MultiLive fleet.
type MultiOption func(*MultiLive)

// WithMultiWireEncoding passes every batch a connection carries, in both
// directions, through the binary codec — encoded into one frame and
// decoded back, the pass a TCP link runs — so the wire format is
// exercised without sockets.
func WithMultiWireEncoding() MultiOption { return func(m *MultiLive) { m.wire = true } }

// WithMultiClient passes options through to the fleet's transport.Client.
func WithMultiClient(opts ...transport.ClientOption) MultiOption {
	return func(m *MultiLive) { m.copts = append(m.copts, opts...) }
}

// WithMultiServers passes options through to the replicas: fn returns
// replica i's (1-based) transport.Server options.
func WithMultiServers(fn func(replica int) []transport.ServerOption) MultiOption {
	return func(m *MultiLive) { m.sopts = fn }
}

// NewMultiLive starts the fleet and dials every replica before it
// returns, so the first operations find their links up rather than
// waiting out a resend tick.
func NewMultiLive(cfg quorum.Config, p register.Protocol, opts ...MultiOption) (*MultiLive, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	m := &MultiLive{}
	for _, o := range opts {
		o(m)
	}
	net := transport.NewChanNetwork()
	addrs := make([]string, cfg.S)
	for i := 1; i <= cfg.S; i++ {
		addrs[i-1] = types.Server(i).String()
		lis, err := net.Listen(addrs[i-1])
		if err != nil {
			m.Close()
			return nil, err
		}
		if m.wire {
			lis = wireListener{lis}
		}
		var sopts []transport.ServerOption
		if m.sopts != nil {
			sopts = m.sopts(i)
		}
		srv, err := transport.NewServer(cfg, p, i, lis, sopts...)
		if err != nil {
			lis.Close()
			m.Close()
			return nil, err
		}
		m.servers = append(m.servers, srv)
	}
	dial := net.Dial
	if m.wire {
		dial = func(addr string) (transport.Conn, error) {
			c, err := net.Dial(addr)
			if err != nil {
				return nil, err
			}
			return wireConn{c}, nil
		}
	}
	c, err := transport.NewClient(cfg, p, addrs, dial, m.copts...)
	if err != nil {
		m.Close()
		return nil, err
	}
	m.Client = c
	c.Connect()
	return m, nil
}

// Crash kills replica s_i for every key at once: the client abandons its
// link and the server stops. With more than t replicas crashed every
// round fails fast with register.ErrProtocol. An index outside [1, S]
// panics.
func (m *MultiLive) Crash(i int) {
	if i < 1 || i > len(m.servers) {
		panic("netsim: Crash of unknown server " + types.Server(i).String())
	}
	m.Client.Crash(i)
	m.servers[i-1].Close()
}

// Servers returns the replicas, s_1 first — for inspection and for their
// eviction sweeps (Sweep on MultiLive sweeps the client's registry only).
func (m *MultiLive) Servers() []*transport.Server { return m.servers }

// Close stops the client — operations then fail with transport.ErrClosed
// — and every replica. Safe to call more than once.
func (m *MultiLive) Close() {
	if m.Client != nil {
		m.Client.Close()
	}
	for _, s := range m.servers {
		s.Close()
	}
}

// wireConn runs every batch sent on a chan connection through the codec:
// one frame encoded (proto.AppendBatch) and decoded (proto.AppendDecode),
// so the peer receives freshly decoded envelopes.
type wireConn struct{ transport.Conn }

func (c wireConn) Send(e proto.Envelope) error {
	return c.SendBatch(append(proto.GetEnvs(), e))
}

//lint:consumes envs
func (c wireConn) SendBatch(envs []proto.Envelope) error {
	if len(envs) == 0 {
		return c.Conn.SendBatch(envs)
	}
	frame, err := proto.AppendBatch(proto.GetBuf(), envs)
	proto.PutEnvs(envs)
	if err != nil {
		return err
	}
	out, _, err := proto.AppendDecode(proto.GetEnvs(), frame)
	proto.PutBuf(frame)
	if err != nil {
		proto.PutEnvs(out)
		return err
	}
	return c.Conn.SendBatch(out)
}

// wireListener hands out wireConns, the server end of the codec pass.
type wireListener struct{ transport.Listener }

func (l wireListener) Accept() (transport.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return wireConn{c}, nil
}
