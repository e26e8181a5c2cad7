package transport

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"fastreg/internal/byzantine"
	"fastreg/internal/epoch"
	"fastreg/internal/history"
	"fastreg/internal/keyreg"
	"fastreg/internal/obs"
	"fastreg/internal/proto"
	"fastreg/internal/quorum"
	"fastreg/internal/register"
	"fastreg/internal/shard"
	"fastreg/internal/types"
)

// Reconnect backoff bounds: after a failed dial the link waits
// dialBackoffMin, doubling per consecutive failure up to dialBackoffMax,
// before the next attempt. Operations meanwhile proceed against the
// reachable servers (any S−t quorum suffices).
const (
	dialBackoffMin = 10 * time.Millisecond
	dialBackoffMax = 1 * time.Second
)

// resendInterval is how long a round waits for its reply quorum before
// its operation re-sends to the servers that have not replied, and how
// often it re-sends after that — the knob that turns transient link
// failures into added latency instead of failed operations.
const resendInterval = 20 * time.Millisecond

// Client drives register operations against a fleet of replica servers
// over any transport — the client half of a deployed cluster, and the
// round engine of every backend: netsim.MultiLive runs one over a
// ChanNetwork.
//
// One Client hosts all of a process's reader/writer identities and
// multiplexes every key's operations over a single connection per server.
// Links reconnect with exponential backoff when a server dies and comes
// back; while a server is down, operations complete against any S−t of
// the fleet, exactly the wait-freedom the protocols promise. Replies are
// correlated back to their operation by (client, key, opID) and counted by
// the round rule of register.Collector, the model's own: toward the open
// round only, once per server, never after the operation finished — so
// stragglers from an earlier round can never satisfy a later one.
//
// An operation costs one wake-up, however many rounds it takes: the
// receive loops count each reply into the operation's collector, and the
// reply that makes a round ready completes it right there — the
// operation's Next runs, then the next round goes out or the waiting
// operation wakes with its result. One client-wide resender goroutine
// keeps time for every round in flight; it wakes an operation only when
// its round has waited past resendInterval.
//
// Delivery is at-least-once: a round whose send failed is re-attempted
// until the reply quorum is in, so a server can Handle the same message
// twice (the collector counts one vote per server). The protocol
// servers all tolerate this — their handlers are max-merge/set-insert
// idempotent, and the FullInfo log server's crucial-info extraction
// dedups by value.
//
// As in the simulators, each (key, writer) and (key, reader) pair must be
// used sequentially; everything else may run concurrently. Per-key
// histories are recorded client-side for the atomicity checker.
//
// Client satisfies fastreg.Backend: Write and Read are context-first,
// and Crash/Histories/Keys/Close complete the store seam.
type Client struct {
	cfg      quorum.Config
	protocol register.Protocol

	links    []*serverLink
	live     atomic.Int64 // links not abandoned; a round needing more fails fast
	reg      *Registry
	vouchT   int
	evictTTL time.Duration
	capture  func(key string, op history.Op)
	coord    *epoch.Coordinator

	// Observability, all nil when disabled (the nil members ARE the off
	// switch — see internal/obs): om records per-operation latency/rounds/
	// retries under "client.<protocol>", flushBatch the coalesced frame
	// sizes, tracer the slow-op round timelines.
	obsReg     *obs.Registry
	om         *obs.OpMetrics
	flushBatch *obs.Histogram
	tracer     *obs.Tracer

	// pending is sharded by key (same partition as everything else) so
	// the S receive loops, which turn rounds over, and the concurrent
	// operations don't serialize on one lock.
	pending []*pendShard

	// scratch pools per-operation round state (the pending-table entry
	// with its reply collector and wake channel) so the steady-state hot
	// path allocates nothing per round.
	scratch sync.Pool

	closed chan struct{}
	once   sync.Once
	wg     sync.WaitGroup // the resender and the eviction sweeper; Close waits for them
}

type pendShard struct {
	mu    sync.Mutex
	m     map[pendKey]*execScratch // guardedby: mu
	wakes uint64                   // guardedby: mu — tokens sent on the entries' ready channels; read only by tests
}

// ClientOption configures a Client.
type ClientOption func(*Client)

// WithRegistry makes the client record into an existing Registry instead
// of a private one. Several Clients in one process — e.g. a test running
// one Client per simulated client process so every server sees multiple
// connections — then share per-key recorders and one clock domain, which
// is what lets the atomicity checker reason about their combined history.
// Identities (writer/reader indices) must not be used through two Clients
// concurrently.
func WithRegistry(r *Registry) ClientOption {
	return func(c *Client) { c.reg = r }
}

// WithOpCapture streams every operation this client completes (or fails)
// into fn, keyed by the register it ran against — the client half of the
// audit subsystem's capture layer, typically an audit.Writer appending
// TraceClientOp records to the process's trace log. The sink is wired
// into the registry's per-key recorders, so with WithRegistry the
// capture covers every Client sharing that registry. fn runs under the
// recorder's lock; keep it brief and never call back into the client.
// Do not combine with WithClientEviction: evicting a key resets its
// history clock, which corrupts the trace log's time domain (fastreg.
// Open rejects the combination at the public surface).
func WithOpCapture(fn func(key string, op history.Op)) ClientOption {
	return func(c *Client) { c.capture = fn }
}

// WithEpochCoordinator attaches the continuous-audit epoch coordinator
// (internal/epoch): every operation borrows a weight ticket at invoke,
// spreads dyadic shares of it onto its request frames (retaining at
// least one atom until it completes), harvests shares the servers echo
// back on replies, and returns the remainder after its capture record is
// written — so when an epoch's weight is whole again, every op charged
// to it is both finished and logged, and the coordinator can stamp the
// boundary. co may be nil (epochs off, zero per-op cost beyond a branch).
func WithEpochCoordinator(co *epoch.Coordinator) ClientOption {
	return func(c *Client) { c.coord = co }
}

// WithClientObs wires the client into an observability registry (and,
// optionally, a slow-op tracer — tr may be nil). The client records
// per-operation latency histograms split by kind, rounds per operation
// and retry counts under "client.<protocol>.*", coalesced flush batch
// sizes under "client.flush_batch", and registers pull gauges for the
// outbound queue depth and in-flight operation count. With a tracer,
// every operation carries a round timeline (queued→sent→quorum→done)
// and operations over the tracer's threshold are retained for
// /debug/slowops. Both may be nil; a nil registry disables everything
// here at the cost of one branch per would-be record.
func WithClientObs(reg *obs.Registry, tr *obs.Tracer) ClientOption {
	return func(c *Client) {
		c.obsReg = reg
		c.tracer = tr
	}
}

// WithVouchedReads wraps the client's read path with the Byzantine
// value-authenticity filter (internal/byzantine): before a fast read's
// admissibility selection runs, every value reported by at most t
// servers is discarded — a fabrication budget ≤ t Byzantine replicas
// cannot beat, while genuine admissible values always carry more than t
// honest reports under the fast-read feasibility condition. Soundness is
// protocol-specific: the filter defends the vector-based fast read
// (W2R1) only, so fastreg.Open rejects the option on other protocols
// rather than sell unearned safety. t must be at least 1.
func WithVouchedReads(t int) ClientOption {
	return func(c *Client) { c.vouchT = t }
}

// WithClientEviction enables the client-side idle-key sweep: every ttl,
// keys with no operation running that went untouched for at least one
// full ttl window (and at most two) are dropped from the client's
// registry — protocol state machines, op counters AND the key's recorded
// history — so a long-lived client working through a churning key
// population stops growing without bound. This is the client-half
// counterpart of the replica-side WithServerEviction (regserver
// -evict-ttl); the server state lives in other processes and is not
// touched. Because evicted histories are gone, don't combine it with an
// atomicity check unless every checked key stays hotter than the TTL.
// Choose a ttl far above operation latency; ttl must be positive.
func WithClientEviction(ttl time.Duration) ClientOption {
	return func(c *Client) {
		if ttl > 0 {
			c.evictTTL = ttl
		}
	}
}

// pendKey names one in-flight operation. opID is scoped per (key, client),
// so the triple is unique process-wide.
type pendKey struct {
	client types.ProcID
	key    string
	opID   uint64
}

// pendingRound is one operation's entry in the pending table, installed
// for the whole operation. Its collector holds the operation and counts
// the replies dispatch hands it; the reply that makes the open round ready
// completes it (turnoverLocked), which either sends the next round from
// the same entry or leaves the outcome in the collector and sends the
// operation's one token on ready. The rest is what only the engine needs:
// the request it re-sends, the trace, the resend clock and the epoch
// credit. The resender sends a token too when it marks the round for a
// resend.
//
// While the entry is installed, the pending shard's mu guards every field
// but ready, without exception: whichever goroutine completes a round or
// marks otr holds it, so the operation passes from goroutine to goroutine
// under that lock.
type pendingRound struct {
	col   register.Collector // buffer capacity S: counting never allocates
	env   proto.Envelope     // the open round's request, as trySendsLocked sends it
	otr   *obs.OpTrace
	ready chan struct{} // buffered(1): at most one wake-up pending
	// resend marks a round the resender found waiting past resendInterval;
	// due is the resender tick at which the round is next due (0: the
	// resender has not seen it yet).
	resend bool
	due    int64
	// credited accumulates the epoch weight harvested off this op's reply
	// envelopes; the op reads it after removing the entry. The op's
	// completion returns Budget−credited, so weight on frames the network
	// ate still comes home.
	credited uint64
}

// wakeLocked sends p's token unless one is already pending. Callers hold
// ps.mu, so removing the entry is a barrier after which no token can
// arrive.
func (ps *pendShard) wakeLocked(p *pendingRound) {
	select {
	case p.ready <- struct{}{}:
		ps.wakes++
	default:
	}
}

// Registry is the sharded per-key client-side state — protocol state
// machines, op counters and history recorders — backed by the shared
// keyreg.ClientRegistry. Each Client owns one by default; WithRegistry
// shares one across Clients.
type Registry struct {
	r *keyreg.ClientRegistry
}

// NewRegistry creates an empty registry with n shards (n ≤ 0 picks the
// default).
func NewRegistry(n int) *Registry {
	return &Registry{r: keyreg.NewClientRegistry(n)}
}

// History returns the execution recorded so far for one key.
func (r *Registry) History(key string) history.History { return r.r.History(key) }

// Histories returns a snapshot of every key's recorded execution.
func (r *Registry) Histories() map[string]history.History { return r.r.Histories() }

// Keys returns the keys touched so far, sorted.
func (r *Registry) Keys() []string { return r.r.Keys() }

// execScratch is the pooled per-operation state: one pending-table entry
// (with its register.Collector, whose reply buffer keeps its capacity, and
// its wake channel) serves every round of an operation and is recycled
// across operations. While it is installed, the pending shard's mu guards
// all of it, whoever holds it: exec, dispatch or the resender. Safe reuse
// rests on two invariants: nothing touches an entry without that lock,
// and exec drains ready after removing the entry — so once an operation
// retires its entry, no stale reply or token can reach a later user.
type execScratch struct {
	pr   pendingRound // the table entry, reused across rounds and ops
	held uint64       // epoch weight atoms not yet attached to a frame
}

// serverLink is the client's link to one replica: one connection with
// its lazy dial/backoff state machine (a nil conn means "down, retry
// after nextDial"), outbound queue, flusher goroutine and receive loop.
// Replies correlate back to operations through the client's shared
// pending table.
//
// Outbound envelopes pass through the link's queue drained by its
// flusher goroutine: a send is just append-and-wake, so an operation's
// fan-out to all S servers costs S queue appends, while everything that
// accumulated between flusher wake-ups — the sends of concurrent rounds
// headed to this server — leaves as one multi-envelope SendBatch frame,
// sharing a single header, encode buffer and flush instead of paying
// per-message wire overhead.
type serverLink struct {
	c         *Client
	id        types.ProcID
	addr      string
	dial      DialFunc
	abandoned atomic.Bool

	mu       sync.Mutex
	conn     Conn          // guardedby: mu
	down     bool          // guardedby: mu — abandoned or client closed: never dial again
	dialDone chan struct{} // guardedby: mu — non-nil while a dial is in flight (the dial itself runs outside the mutex); closed when it settles
	fails    int           // guardedby: mu
	nextDial time.Time     // guardedby: mu

	qmu   sync.Mutex
	queue []proto.Envelope // guardedby: qmu
	wake  chan struct{}    // buffered(1): at most one pending flusher wake-up
}

// NewClient creates a client for a cfg-shaped cluster whose replicas
// s_1..s_S listen at addrs[0..S-1], reachable through dial (DialTCP, or a
// ChanNetwork's Dial). Connections are established lazily on first use
// and re-established with backoff after failures.
func NewClient(cfg quorum.Config, p register.Protocol, addrs []string, dial DialFunc, opts ...ClientOption) (*Client, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(addrs) != cfg.S {
		return nil, fmt.Errorf("transport: %d addresses for %d servers", len(addrs), cfg.S)
	}
	c := &Client{
		cfg:      cfg,
		protocol: p,
		pending:  make([]*pendShard, shard.Default),
		closed:   make(chan struct{}),
	}
	for i := range c.pending {
		c.pending[i] = &pendShard{m: make(map[pendKey]*execScratch)}
	}
	for _, o := range opts {
		o(c)
	}
	if c.vouchT > 0 {
		c.protocol = byzantine.NewVouched(c.protocol, c.vouchT)
	}
	if c.reg == nil {
		c.reg = NewRegistry(0)
	}
	if c.capture != nil {
		c.reg.r.SetCapture(c.capture)
	}
	c.links = make([]*serverLink, cfg.S)
	c.live.Store(int64(cfg.S))
	for i := range c.links {
		l := &serverLink{c: c, id: types.Server(i + 1), addr: addrs[i], dial: dial, wake: make(chan struct{}, 1)}
		c.links[i] = l
		go l.flushLoop() // exits when the client closes
	}
	if c.obsReg != nil {
		c.om = obs.NewOpMetrics(c.obsReg, "client."+p.Name())
		c.flushBatch = c.obsReg.Histogram("client.flush_batch")
		c.obsReg.GaugeFunc("client.queue_depth", c.queueDepth)
		c.obsReg.GaugeFunc("client.pending_ops", c.pendingOps)
	}
	c.wg.Add(1)
	go c.resender()
	if c.evictTTL > 0 {
		c.wg.Add(1)
		go c.sweeper()
	}
	return c, nil
}

// queueDepth sums the envelopes sitting in the links' outbound queues —
// evaluated at snapshot time only (pull gauge).
func (c *Client) queueDepth() int64 {
	var n int64
	for _, l := range c.links {
		l.qmu.Lock()
		n += int64(len(l.queue))
		l.qmu.Unlock()
	}
	return n
}

// pendingOps counts operations with a live round in the pending table.
func (c *Client) pendingOps() int64 {
	var n int64
	for _, ps := range c.pending {
		ps.mu.Lock()
		n += int64(len(ps.m))
		ps.mu.Unlock()
	}
	return n
}

// sweeper ticks the client registry's eviction epoch every TTL and drops
// what went idle.
func (c *Client) sweeper() {
	defer c.wg.Done()
	t := time.NewTicker(c.evictTTL)
	defer t.Stop()
	for {
		select {
		case <-c.closed:
			return
		case <-t.C:
			c.Sweep()
		}
	}
}

// Sweep advances the client registry's eviction epoch and evicts every
// key with no operation running that was untouched for a full epoch,
// returning the number of keys dropped. The TTL sweeper calls this on its
// tick; tests and tooling may call it directly (meaningful even without
// WithClientEviction).
func (c *Client) Sweep() int { return c.reg.r.Sweep() }

// resender is the client's one resend clock, ticking every
// resendInterval/2 until the client closes. On each tick it visits the
// pending table: a round it sees for the first time falls due two ticks
// later (so it has waited more than resendInterval, and less than 1.5×,
// when it first falls due); a due round of an unfinished op that is not
// ready is marked, woken to re-send to its silent servers, and falls due
// again one resendInterval later.
func (c *Client) resender() {
	defer c.wg.Done()
	t := time.NewTicker(resendInterval / 2)
	defer t.Stop()
	var tick int64
	for {
		select {
		case <-c.closed:
			return
		case <-t.C:
		}
		tick++
		for _, ps := range c.pending {
			ps.mu.Lock()
			for _, sc := range ps.m {
				switch p := &sc.pr; {
				case p.due == 0:
					p.due = tick + 2
				case tick >= p.due && !p.col.Done() && !p.col.Ready():
					p.due = tick + 2
					p.resend = true
					ps.wakeLocked(p)
				}
			}
			ps.mu.Unlock()
		}
	}
}

// Connect eagerly dials every server (waiting for the dials to settle)
// and reports how many are reachable right now. Operations dial lazily
// anyway; connecting first only spares the first ones a resend.
func (c *Client) Connect() int {
	n := 0
	for _, l := range c.links {
		if l.connect() {
			n++
		}
	}
	return n
}

// Config returns the cluster shape.
func (c *Client) Config() quorum.Config { return c.cfg }

// Write stores data under key as writer w_i (1-based), blocking until the
// protocol's write completes, ctx expires (register.ErrTimeout), or the
// client closes.
func (c *Client) Write(ctx context.Context, key string, writer int, data string) (types.Value, error) {
	if writer < 1 || writer > c.cfg.W {
		return types.Value{}, fmt.Errorf("transport: writer %d out of range [1,%d]", writer, c.cfg.W)
	}
	st := c.reg.r.Acquire(key)
	return c.exec(ctx, key, st, st.Writer(types.Writer(writer), c.protocol, c.cfg).WriteOp(data))
}

// Read reads key as reader r_i (1-based).
func (c *Client) Read(ctx context.Context, key string, reader int) (types.Value, error) {
	if reader < 1 || reader > c.cfg.R {
		return types.Value{}, fmt.Errorf("transport: reader %d out of range [1,%d]", reader, c.cfg.R)
	}
	st := c.reg.r.Acquire(key)
	return c.exec(ctx, key, st, st.Reader(types.Reader(reader), c.protocol, c.cfg).ReadOp())
}

// getScratch checks a scratch set out of the pool, or builds one.
func (c *Client) getScratch() *execScratch {
	if v := c.scratch.Get(); v != nil {
		return v.(*execScratch)
	}
	return &execScratch{pr: pendingRound{ready: make(chan struct{}, 1)}}
}

// putScratch returns a scratch set to the pool. The caller must already
// have removed the operation's pending entry, after which no token can
// reach ready; one sent before (a resend the op no longer waited for) is
// drained here.
func (c *Client) putScratch(sc *execScratch) {
	select {
	case <-sc.pr.ready:
	default:
	}
	pr := &sc.pr
	pr.col.Reset() // drop the payloads, and the frame blocks they point into
	pr.env, pr.otr = proto.Envelope{}, nil
	c.scratch.Put(sc)
}

// exec runs one operation: it installs the operation's entry, sends
// round 1 and waits once, while dispatch completes the rounds (see
// turnoverLocked). A round whose Need exceeds the links not abandoned
// fails fast with register.ErrProtocol — no quorum can form.
func (c *Client) exec(ctx context.Context, key string, st *keyreg.ClientState, op register.Operation) (types.Value, error) {
	defer c.reg.r.Release(st)
	select {
	case <-c.closed:
		return types.Value{}, ErrClosed
	default:
	}
	opID := st.NextOpID(op.Client(), c.cfg)
	pk := pendKey{client: op.Client(), key: key, opID: opID}
	rec := st.Recorder()
	href := rec.Invoke(op.Client(), opID, op.Kind(), op.Arg())
	// Epoch cutover (Huang weight throwing): borrow the op's weight from
	// the open epoch before any frame leaves, and tag the recorded op so
	// its capture record lands in the right audit window.
	tk := c.coord.Borrow()
	if tk.Epoch != 0 {
		rec.SetEpoch(href, tk.Epoch)
	}
	isWrite := op.Kind() == types.OpWrite
	// Observability entry: time.Now only when something will consume it.
	// With metrics and tracing off, t0 stays zero and tr nil — the whole
	// block below costs one branch.
	var t0 time.Time
	var otr *obs.OpTrace
	if c.om != nil || c.tracer != nil {
		t0 = time.Now()
		otr = c.tracer.Start(key, op.Kind().String(), op.Client().String())
	}
	sc := c.getScratch()
	pr := &sc.pr
	ps := c.pendShardOf(key)
	// No table entry points at pr yet, so these writes race with nothing.
	round := pr.col.Begin(op, c.cfg.S)
	pr.resend, pr.due, pr.credited = false, 0, 0
	sc.held = tk.Budget
	opErr := c.unreachable(round.Need)
	if opErr == nil {
		// Broadcast round 1; from here on, whoever holds ps.mu drives the
		// operation. Only a recorded reply proves delivery, so the
		// resender has silent servers re-sent to; re-sends are safe
		// because the collector counts one vote per server. The operation
		// blocks until its last round has Need distinct replies or ctx
		// expires — the wait-free contract the protocols' model promises.
		ps.mu.Lock()
		pr.otr = otr
		pr.env = proto.Envelope{
			From:    op.Client(),
			Key:     key,
			OpID:    opID,
			Round:   1,
			Epoch:   tk.Epoch,
			Payload: round.Payload,
		}
		ps.m[pk] = sc
		if ctx.Err() == nil {
			c.trySendsLocked(sc)
		}
		otr.Mark("sent", 1)
		ps.mu.Unlock()
		opErr = c.awaitQuorum(ctx, ps, sc)
	}
	ps.mu.Lock()
	delete(ps.m, pk)
	res, err := pr.col.Result()
	roundNo, credited := pr.col.Round(), pr.credited
	if opErr == nil {
		opErr = err
	}
	ps.mu.Unlock()
	c.putScratch(sc)
	// Per-key workload counters are always on (one uncontended atomic add);
	// the adaptive-protocol signals must not depend on metrics being up.
	if isWrite {
		st.WriteOps.Add(1)
	} else {
		st.ReadOps.Add(1)
	}
	if c.om != nil {
		c.om.Op(isWrite, int64(time.Since(t0)), roundNo, opErr != nil)
	}
	c.tracer.Finish(otr)
	if opErr != nil {
		rec.RespondFailed(href, op.Kind(), op.Arg(), opErr)
	} else {
		// A read's res may be cut from a reply frame; return the
		// recorder's copy, which pins none.
		res.Data = rec.Respond(href, res, nil)
	}
	// Return the weight remainder only after Respond put the op's record
	// in the capture log: the epoch's last return triggers the boundary
	// stamp, so this order is what keeps every record above its boundary.
	// credited covers shares harvested off replies (already returned by
	// dispatch); attached weight the network ate is neither, so it comes
	// home here — the ledger never leaks over lossy links.
	if tk.Epoch != 0 {
		c.coord.Return(tk.Epoch, tk.Budget-credited)
	}
	if opErr != nil {
		return types.Value{}, opErr
	}
	return res, nil
}

// unreachable reports the register.ErrProtocol failure of a round that
// needs more replies than there are links not abandoned, nil otherwise.
func (c *Client) unreachable(need int) error {
	if live := int(c.live.Load()); need > live {
		return fmt.Errorf("%w: only %d of %d required servers reachable", register.ErrProtocol, live, need)
	}
	return nil
}

// awaitQuorum blocks until dispatch has finished the operation, ctx
// expires or the client closes. Each time the resender marks the current
// round, it re-sends to the servers whose reply is not in — after
// re-checking that enough links remain for a quorum to form at all.
func (c *Client) awaitQuorum(ctx context.Context, ps *pendShard, sc *execScratch) error {
	pr := &sc.pr
	for {
		select {
		case <-pr.ready:
		case <-ctx.Done():
		case <-c.closed:
			return ErrClosed
		}
		// Expiry wins deterministically over a finished operation: an
		// already-cancelled ctx never completes it.
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("%w: %v", register.ErrTimeout, err)
		}
		ps.mu.Lock()
		done := pr.col.Done()
		resend := pr.resend && !done
		pr.resend = false
		var err error
		if resend {
			if err = c.unreachable(pr.col.Need()); err == nil {
				c.trySendsLocked(sc)
			}
		}
		ps.mu.Unlock()
		switch {
		case done || err != nil:
			return err
		case resend:
			c.om.Retry()
		}
	}
}

// trySendsLocked sends the current round's envelope to every server whose
// reply is not in yet, best-effort; servers still silent get it again when
// the resender next marks the round. The caller holds the entry's pending
// shard lock.
func (c *Client) trySendsLocked(sc *execScratch) {
	pr := &sc.pr
	for _, l := range c.links {
		if pr.col.Counted(l.id) {
			continue
		}
		env := pr.env
		env.To = l.id
		// Throw a dyadic share of the op's weight with the frame (Huang's
		// Half), always retaining at least one atom so the epoch cannot
		// close while this op is live. Re-sends split what remains.
		if sc.held > 1 {
			w := sc.held / 2
			sc.held -= w
			env.Weight = w
		}
		l.send(env)
	}
}

func (c *Client) pendShardOf(key string) *pendShard {
	return c.pending[shard.Index(key, len(c.pending))]
}

// dispatch counts one reply envelope into its operation's collector.
// Replies from outside the fleet are dropped here; the collector drops
// the rest that must not count: stragglers of superseded rounds (a slow
// server's round-1 reply must never count toward round 2), a second reply
// from one server (re-sent rounds draw duplicates, and quorum intersection
// needs distinct servers), and replies to a finished operation. The reply
// that makes the round ready completes it, under the shard lock, which
// makes removing the entry a barrier the round engine relies on to
// recycle it.
func (c *Client) dispatch(env *proto.Envelope) {
	if !env.IsReply || env.Payload == nil || env.From.Role != types.RoleServer ||
		env.From.Index < 1 || env.From.Index > len(c.links) {
		return
	}
	pk := pendKey{client: env.To, key: env.Key, opID: env.OpID}
	ps := c.pendShardOf(env.Key)
	var harvest uint64
	ps.mu.Lock()
	if sc, ok := ps.m[pk]; ok {
		p := &sc.pr
		// Harvest the weight the server echoed back: record it against the
		// op (so completion returns only the remainder) and send it home
		// below, off the shard lock. Stragglers of dead rounds are NOT
		// harvested — their weight comes home via the op's remainder.
		if env.Weight != 0 && int(env.Round) == p.col.Round() {
			p.credited += env.Weight
			harvest = env.Weight
		}
		if p.col.Count(int(env.Round), register.Reply{From: env.From, Msg: env.Payload}) && p.col.Ready() {
			c.turnoverLocked(ps, sc)
		}
	}
	ps.mu.Unlock()
	if harvest != 0 {
		c.coord.Return(env.Epoch, harvest)
	}
}

// turnoverLocked completes the round that just became ready, on the
// goroutine that delivered the reply that made it so: the collector feeds
// the replies to the operation's Next, then the entry sends the next
// round, or the operation, finished, wakes. A next round needing more
// replies than there are links not abandoned fails the operation. The
// caller holds ps.mu.
func (c *Client) turnoverLocked(ps *pendShard, sc *execScratch) {
	p := &sc.pr
	p.otr.Mark("quorum", uint8(p.col.Round()))
	if next, more := p.col.Complete(); more {
		if err := c.unreachable(next.Need); err != nil {
			p.col.Fail(err)
		}
		p.env.Payload = next.Payload
	}
	if p.col.Done() {
		ps.wakeLocked(p)
		return
	}
	p.resend, p.due = false, 0
	p.env.Round = uint8(p.col.Round())
	c.trySendsLocked(sc)
	p.otr.Mark("sent", p.env.Round)
}

// Crash severs the client's link to server s_i (1-based) permanently.
// On a network client, "crashing" s_i can only mean abandoning this
// client's link to it — the client-side view of a crashed replica; the
// replica lives in another process and keeps serving others. To kill the
// replica itself, close its Server.
func (c *Client) Crash(i int) {
	if i < 1 || i > len(c.links) {
		return
	}
	l := c.links[i-1]
	if l.abandoned.CompareAndSwap(false, true) {
		c.live.Add(-1)
	}
	l.shutdown()
}

// shutdown marks the link permanently down and closes any live
// connection.
func (l *serverLink) shutdown() {
	l.mu.Lock()
	l.down = true
	conn := l.conn
	l.conn = nil
	l.mu.Unlock()
	if conn != nil {
		conn.Close()
	}
}

// Metrics returns the client's operation metric set, nil when the client
// was built without WithClientObs. The store layer reaches it through a
// type assertion (the same optional-capability pattern as Connect).
func (c *Client) Metrics() *obs.OpMetrics { return c.om }

// Tracer returns the client's slow-op tracer (nil when not installed).
func (c *Client) Tracer() *obs.Tracer { return c.tracer }

// KeyStats returns the per-key workload profiles (read/write mix,
// contention) the client registry maintains unconditionally.
func (c *Client) KeyStats() []keyreg.KeyStats { return c.reg.r.KeyStats() }

// History returns the execution recorded so far for one key.
func (c *Client) History(key string) history.History { return c.reg.History(key) }

// Histories returns a snapshot of every key's recorded execution.
func (c *Client) Histories() map[string]history.History { return c.reg.Histories() }

// Keys returns the keys this client's registry has touched, sorted.
func (c *Client) Keys() []string { return c.reg.Keys() }

// Close tears down every link; blocked operations return ErrClosed. The
// resender and eviction sweeper have exited when it returns.
func (c *Client) Close() {
	c.once.Do(func() {
		close(c.closed)
		for _, l := range c.links {
			l.shutdown()
		}
	})
	c.wg.Wait()
}

// send queues one envelope for the link's flusher. Delivery is
// best-effort — a dropped envelope is re-sent when the resender marks its
// round; only a recorded reply proves delivery.
func (l *serverLink) send(env proto.Envelope) {
	l.qmu.Lock()
	if l.queue == nil {
		l.queue = proto.GetEnvs()
	}
	l.queue = append(l.queue, env)
	l.qmu.Unlock()
	select {
	case l.wake <- struct{}{}:
	default: // a wake-up is already pending; the flusher will see this envelope
	}
}

// flushLoop is the link's flusher goroutine: woken by send, it
// drains the outbound queue to empty, shipping each drained batch as one
// multi-envelope frame. Keeping it off the operations' goroutines keeps
// an op's S-server fan-out non-blocking — the op never flushes other
// ops' traffic on its own critical path — while everything enqueued
// between wake-ups coalesces. Queue slabs come from the proto pool and
// return to it through SendBatch's ownership transfer, so steady-state
// queuing allocates nothing.
func (l *serverLink) flushLoop() {
	for {
		select {
		case <-l.c.closed:
			return
		case <-l.wake:
		}
		// Yield once before draining: operations runnable right now get
		// to enqueue their sends first, so the drain below ships them all
		// in one frame instead of chasing them one frame at a time — a
		// scheduler-granularity accumulation window, not a timer.
		runtime.Gosched()
		for {
			l.qmu.Lock()
			batch := l.queue
			l.queue = nil
			l.qmu.Unlock()
			if len(batch) == 0 {
				if batch != nil {
					proto.PutEnvs(batch)
				}
				break
			}
			conn, err := l.get()
			if err != nil {
				// Link down: drop the batch; the resender has rounds re-send.
				proto.PutEnvs(batch)
				continue
			}
			l.c.flushBatch.Observe(int64(len(batch)))
			if err := conn.SendBatch(batch); err != nil {
				l.drop(conn)
			}
		}
	}
}

// get returns the live connection if there is one; with none, it kicks
// off an asynchronous (re)dial — respecting the backoff window — and
// reports the connection as down. Senders therefore never stall behind a
// black-holed replica: the round re-sends, once the dial has settled,
// when the resender marks it. Crash and Close are likewise never blocked (the dial
// runs outside the mutex, in its own goroutine).
func (l *serverLink) get() (Conn, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.down {
		return nil, ErrClosed
	}
	if l.conn != nil {
		return l.conn, nil
	}
	if l.dialDone == nil && !time.Now().Before(l.nextDial) {
		done := make(chan struct{})
		l.dialDone = done
		go l.redial(done)
	}
	return nil, fmt.Errorf("transport: %s down", l.addr)
}

// redial performs one dial attempt and settles the link's state;
// done is closed when the outcome (success, failure + backoff) is
// visible.
func (l *serverLink) redial(done chan struct{}) {
	conn, err := l.dial(l.addr)

	l.mu.Lock()
	l.dialDone = nil
	close(done)
	if l.down {
		l.mu.Unlock()
		if err == nil {
			conn.Close()
		}
		return
	}
	if err != nil {
		l.fails++
		backoff := dialBackoffMin << (l.fails - 1)
		if backoff > dialBackoffMax || backoff <= 0 {
			backoff = dialBackoffMax
		}
		l.nextDial = time.Now().Add(backoff)
		l.mu.Unlock()
		return
	}
	l.fails = 0
	l.conn = conn
	l.mu.Unlock()
	go l.recvLoop(conn)
}

// connect resolves the link to a definite "live or not right now": it
// triggers a dial if one is due and waits for an in-flight dial to
// settle (bounded by the dialer's own timeout).
func (l *serverLink) connect() bool {
	for {
		l.mu.Lock()
		if l.down {
			l.mu.Unlock()
			return false
		}
		if l.conn != nil {
			l.mu.Unlock()
			return true
		}
		if done := l.dialDone; done != nil {
			l.mu.Unlock()
			<-done
			continue
		}
		if time.Now().Before(l.nextDial) {
			l.mu.Unlock()
			return false
		}
		done := make(chan struct{})
		l.dialDone = done
		go l.redial(done)
		l.mu.Unlock()
	}
}

// drop forgets a failed connection so the next send redials.
func (l *serverLink) drop(conn Conn) {
	l.mu.Lock()
	if l.conn == conn {
		l.conn = nil
	}
	l.mu.Unlock()
	conn.Close()
}

// recvLoop pumps one connection's replies into the dispatcher until the
// connection dies. Batched replies are drained frame-at-a-time, so a
// server's coalesced answers cost one read here too; the drained slab is
// recycled once every envelope has been dispatched, each in place in the
// slab. dispatch only looks the Key up, so nothing keeps the frame block
// it is cut from; the payload travels on to the op's round, a reader that
// keeps a value of a fast-read reply clones it, an op that keeps a
// QueryAck's value copies *Val, which lets go of the frame's value arena
// (opkit's Keep rule), and the value a read returns is the history
// recorder's copy, which lets go of the frame's text (exec); text and
// arenas are one block (proto.Decode).
func (l *serverLink) recvLoop(conn Conn) {
	for {
		envs, err := conn.RecvBatch()
		if err != nil {
			l.drop(conn)
			return
		}
		for i := range envs {
			l.c.dispatch(&envs[i])
		}
		proto.PutEnvs(envs)
	}
}
