package transport

import (
	"sync"
	"time"

	"fastreg/internal/keyreg"
	"fastreg/internal/obs"
	"fastreg/internal/proto"
	"fastreg/internal/quorum"
	"fastreg/internal/register"
	"fastreg/internal/types"
)

// Server hosts ONE replica (server s_i) of a register cluster behind a
// Listener — the process cmd/regserver runs. Every key's protocol state
// lives in a sharded, lazily-created keyreg.ServerRegistry; the
// servers of the paper's protocols never talk to each other, so a replica
// is complete with just client-facing connections.
//
// Each accepted connection gets one receive-loop goroutine that drains
// whole frames — a client's coalesced batch arrives as one multi-envelope
// frame — handles the batch in arrival order under the key shards' locks
// (which serialize Handle per key across connections, the protocol's
// server-state requirement; consecutive requests to one shard share one
// acquisition), and replies in kind: every reply the batch produced rides
// back in one batched frame, written by the receive loop itself in one
// SendBatch.
type Server struct {
	id       types.ProcID
	cfg      quorum.Config
	protocol register.Protocol

	reg       *keyreg.ServerRegistry
	maxRounds int // longest operation (in rounds) the protocol promises

	// evictTTL (off unless WithServerEviction) drives the sweeper; the
	// eviction epoch itself lives in the registry.
	evictTTL time.Duration

	// capture (off unless WithServerCapture) observes every handled
	// request together with the reply it produced — the audit trace hook.
	capture func(env proto.Envelope, reply proto.Message, seq uint64)

	// staleAfter (off unless WithStaleReadFault) makes the replica serve
	// reads the initial value once a key has seen that many requests.
	staleAfter int64

	// Observability (all zero/nil when disabled — WithServerObs): request
	// throughput, batch fan-in and reply coalescing histograms, and a
	// slow-batch counter past slowBatch.
	obsReg     *obs.Registry
	requests   *obs.Counter
	batchFanin *obs.Histogram
	replyBatch *obs.Histogram
	slowCount  *obs.Counter
	slowBatch  time.Duration

	lis Listener

	mu     sync.Mutex
	conns  map[Conn]struct{} // guardedby: mu
	closed bool              // guardedby: mu
	stop   chan struct{}

	wg sync.WaitGroup
}

// ServerOption configures a Server.
type ServerOption func(*Server)

// WithServerEviction enables the replica's idle-key sweep (the client's
// is WithClientEviction): every ttl, keys untouched
// for at least one full ttl window (and at most two) are evicted from the
// replica's sharded state maps, so a long-running regserver facing a
// churning key population stops growing without bound.
//
// Eviction gives keys TTL-expiry semantics (Redis EXPIRE, Cassandra TTL),
// and the expiry is effectively CLUSTER-wide: a fleet deployed with the
// same ttl evicts a cluster-idle key at every replica, so its committed
// value is gone and later reads return never-written. That is the
// feature's contract — expiry, not caching — so enable it only for
// workloads whose idle keys are disposable, and keep it off (the
// default) for durable registers; S−t durable eviction needs the
// state-transfer story the ROADMAP tracks. Two further caveats:
// client-side protocol state lives with the clients and is NOT dropped
// with the key, and client-side histories
// likewise outlive the expiry — an atomicity check over a history that
// spans an eviction will (correctly, from its point of view) flag the
// expired write, so don't mix -check with keys that idle past the TTL.
//
// Keys with an operation mid-flight (a query-then-update operation whose
// final round has not arrived) are never evicted; mid-flight records
// left behind by crashed clients age out after one full window. Choose a
// ttl far above operation latency; ttl must be positive.
func WithServerEviction(ttl time.Duration) ServerOption {
	return func(s *Server) {
		if ttl > 0 {
			s.evictTTL = ttl
		}
	}
}

// WithServerCapture streams the replica's handled requests into fn — one
// call per request, with the reply the protocol logic produced (nil when
// it stayed silent). This is the replica half of the audit subsystem's
// capture layer: fn is typically an audit.Writer appending
// TraceServerHandle records to the replica's trace log (regserver
// -capture). fn runs on the connection loops after the shard lock is
// released but BEFORE the batch's replies are sent — paired with the
// audit writer's per-record flush on replica logs, that gives
// durable-before-visible capture: a value no client has observed yet
// cannot be missing from the log, even across kill -9. Calls for one key
// arrive in handle order within a batch but may interleave across
// batches — seq restores the true order: it is the key's handled counter
// read under the shard lock, a per-(replica,key) total order the
// served-value cross-check sorts by, which log position cannot give.
// env.Key is cut from its whole received frame (proto.Decode): the audit
// writer encodes it and lets go, and a hook that keeps it must keep
// strings.Clone of it.
func WithServerCapture(fn func(env proto.Envelope, reply proto.Message, seq uint64)) ServerOption {
	return func(s *Server) { s.capture = fn }
}

// WithServerObs wires the replica into an observability registry: request
// throughput ("server.requests"), batch fan-in and reply-coalesce size
// histograms, the live key count as a pull gauge, and — with
// slowBatch > 0 — a counter of shard batches whose handling exceeded that
// duration. A nil registry disables everything here at the cost of one
// branch per would-be record.
func WithServerObs(reg *obs.Registry, slowBatch time.Duration) ServerOption {
	return func(s *Server) {
		s.obsReg = reg
		s.slowBatch = slowBatch
	}
}

// WithStaleReadFault injects a deterministic replica fault for the audit
// pipeline's negative tests (regserver -fault-stale-after): once a key
// has seen n requests at this replica, the replica answers that key's
// queries and fast reads with the INITIAL value while still
// acknowledging writes it no longer applies — a frozen, lying replica.
// Run a whole fleet with the same n and a read that lands after the
// poison point returns stale data, which the capture/merge/check
// pipeline must flag as an atomicity violation. Never enable this
// outside fault-injection testing; n must be positive.
func WithStaleReadFault(n int64) ServerOption {
	return func(s *Server) {
		if n > 0 {
			s.staleAfter = n
		}
	}
}

// NewServer starts replica s_replica (1-based) of a cfg-shaped cluster on
// lis. It returns immediately; Close stops accepting, drops live
// connections and waits for the serving goroutines.
func NewServer(cfg quorum.Config, p register.Protocol, replica int, lis Listener, opts ...ServerOption) (*Server, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Server{
		id:       types.Server(replica),
		cfg:      cfg,
		protocol: p,
		lis:      lis,
		conns:    make(map[Conn]struct{}),
		stop:     make(chan struct{}),
	}
	s.maxRounds = p.WriteRounds()
	if r := p.ReadRounds(); r > s.maxRounds {
		s.maxRounds = r
	}
	for _, o := range opts {
		o(s)
	}
	s.reg = keyreg.NewServerRegistry(0, func() register.ServerLogic {
		return p.NewServer(s.id, cfg)
	})
	if s.obsReg != nil {
		s.requests = s.obsReg.Counter("server.requests")
		s.batchFanin = s.obsReg.Histogram("server.batch_fanin")
		s.replyBatch = s.obsReg.Histogram("server.reply_batch")
		s.slowCount = s.obsReg.Counter("server.slow_batches")
		s.obsReg.GaugeFunc("server.keys", func() int64 { return int64(s.reg.KeyCount()) })
	}
	s.wg.Add(1)
	go s.acceptLoop()
	if s.evictTTL > 0 {
		s.wg.Add(1)
		go s.sweeper()
	}
	return s, nil
}

// ID returns the replica's process identity.
func (s *Server) ID() types.ProcID { return s.id }

// Addr returns the listener's bound address.
func (s *Server) Addr() string { return s.lis.Addr() }

func (s *Server) acceptLoop() {
	defer s.wg.Done()
	for {
		conn, err := s.lis.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// connReq is one request of a drained batch with its precomputed shard.
type connReq struct {
	env   proto.Envelope
	shard int
}

// serveConn is one connection's receive loop: drain the next frame's
// whole batch, handle it, send every reply back in one batched frame.
func (s *Server) serveConn(conn Conn) {
	defer s.wg.Done()
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	var reqs []connReq // reused across frames
	for {
		envs, err := conn.RecvBatch()
		if err != nil {
			return // peer gone or we closed
		}
		reqs = reqs[:0]
		for i := range envs {
			env := &envs[i]
			if env.Payload == nil || env.IsReply {
				continue // not a request; drop like a corrupt frame
			}
			reqs = append(reqs, connReq{env: *env, shard: s.reg.ShardIndex(env.Key)})
		}
		proto.PutEnvs(envs)
		if len(reqs) == 0 {
			continue
		}
		replies := s.handleReqs(reqs, proto.GetEnvs())
		// Drop the requests: their keys are cut from the frame, which
		// they would keep alive while the connection sits idle.
		clear(reqs)
		if len(replies) == 0 {
			proto.PutEnvs(replies)
			continue
		}
		s.replyBatch.Observe(int64(len(replies)))
		if err := conn.SendBatch(replies); err != nil {
			return
		}
	}
}

// handleReqs handles the requests in arrival order, taking a shard's lock
// once per run of consecutive requests to that shard. Correlated replies
// are appended to out (typically a pooled slab) in request order.
//
//lint:captureflush
func (s *Server) handleReqs(reqs []connReq, out []proto.Envelope) []proto.Envelope {
	s.requests.Add(int64(len(reqs)))
	s.batchFanin.Observe(int64(len(reqs)))
	var t0 time.Time
	if s.slowBatch > 0 {
		t0 = time.Now()
	}
	epoch := s.reg.Epoch()
	var caps []capturedHandle // only allocated when capture is on
	for start := 0; start < len(reqs); {
		end := start + 1
		for end < len(reqs) && reqs[end].shard == reqs[start].shard {
			end++
		}
		sh := s.reg.Shard(reqs[start].shard)
		sh.Lock()
		for i := start; i < end; i++ {
			r := &reqs[i]
			sk := sh.GetLocked(r.env.Key)
			sk.Touch(r.env, epoch, s.maxRounds)
			reply := sk.Logic.Handle(r.env.From, r.env.Payload)
			if s.staleAfter > 0 && sk.Handled() > s.staleAfter {
				reply = staleReply(reply)
			}
			if s.capture != nil {
				caps = append(caps, capturedHandle{env: r.env, reply: reply, seq: uint64(sk.Handled())})
			}
			if reply == nil {
				continue
			}
			// The reply echoes the request's epoch tag and carries its
			// weight home (Huang's weight forwarding): the client harvests
			// it on dispatch, so most of an op's weight returns with the
			// quorum instead of waiting for op completion.
			out = append(out, proto.Envelope{
				From:    s.id,
				To:      r.env.From,
				Key:     r.env.Key,
				OpID:    r.env.OpID,
				Round:   r.env.Round,
				IsReply: true,
				Epoch:   r.env.Epoch,
				Weight:  r.env.Weight,
				Payload: reply,
			})
		}
		sh.Unlock()
		start = end
	}
	// Emit capture records outside the shard locks (the trace writer does
	// its own locking and file I/O, which must not extend the protocol's
	// critical section) but BEFORE the replies ship — serveConn sends them
	// only after this returns, preserving the audit layer's
	// durable-before-visible contract.
	for _, c := range caps {
		s.capture(c.env, c.reply, c.seq)
	}
	if s.slowBatch > 0 && time.Since(t0) >= s.slowBatch {
		s.slowCount.Add(1)
	}
	return out
}

// capturedHandle is one (request, reply) pair queued for the capture
// callback while the shard lock is held.
type capturedHandle struct {
	env   proto.Envelope
	reply proto.Message
	seq   uint64
}

// staleInitial is the value a WithStaleReadFault replica serves, shared
// by all its QueryAcks and TagAcks and never written.
var staleInitial = types.InitialValue()

// staleReply is the WithStaleReadFault corruption: replies that carry
// values are frozen to the initial value; acks pass through, so writes
// still "succeed" while silently not taking effect.
func staleReply(reply proto.Message) proto.Message {
	switch reply.(type) {
	case proto.QueryAck:
		return proto.QueryAck{Val: &staleInitial}
	case proto.TagAck:
		return proto.TagAck{Tag: &staleInitial.Tag}
	case proto.FastReadAck:
		return proto.FastReadAck{Vector: []proto.VectorEntry{{Val: types.InitialValue()}}}
	default:
		return reply
	}
}

// sweeper ticks the eviction epoch every TTL and evicts what went idle.
func (s *Server) sweeper() {
	defer s.wg.Done()
	t := time.NewTicker(s.evictTTL)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.Sweep()
		}
	}
}

// Sweep advances the eviction epoch and evicts every key untouched for a
// full epoch that has no operation mid-flight, deleting its protocol
// state under the shard lock (so no Handle can interleave). Mid-flight
// records older than the idle window are dropped as abandoned (their
// client crashed or timed out). Returns the number of keys evicted. The
// TTL sweeper calls this on its tick; tests and tooling may call it
// directly.
func (s *Server) Sweep() int { return s.reg.Sweep() }

// Value inspects the replica's stored value for key (tests and tooling;
// protocol code never calls it). ok is false when the key was never
// touched here.
func (s *Server) Value(key string) (types.Value, bool) { return s.reg.Value(key) }

// KeyCount reports how many keys the replica holds state for.
func (s *Server) KeyCount() int { return s.reg.KeyCount() }

// Close stops the replica: the listener closes, every live connection is
// dropped (clients see a dead socket, as if the process was killed), and
// all goroutines are joined. Safe to call more than once.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return
	}
	s.closed = true
	close(s.stop)
	conns := make([]Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	s.lis.Close()
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
}
