// Package netsim simulates the system model of Fig. 1: servers, readers and
// writers communicating over bidirectional reliable asynchronous channels,
// with no server-to-server communication, a discrete global clock the
// processes cannot access, and up to t server crashes.
//
// Two execution environments are provided:
//
//   - Sim: a deterministic discrete-event simulator driven by a virtual
//     clock. Message delays are arbitrary (asynchrony) but reproducible from
//     a seed; latency is measured in exact virtual time, so round-trip
//     counts — the quantity the paper reasons about — translate directly
//     into latency shapes.
//   - MultiLive (multilive.go): the in-process live fleet. It hosts S
//     transport.Servers and one transport.Client on a transport.ChanNetwork
//     — the same round engine and replica loop a TCP deployment runs,
//     with channels for sockets — so one fleet serves every key with
//     O(servers) goroutines, and crashing a server kills it for all keys.
package netsim

import (
	"container/heap"
	"fmt"
	"math/rand"

	"fastreg/internal/history"
	"fastreg/internal/proto"
	"fastreg/internal/quorum"
	"fastreg/internal/register"
	"fastreg/internal/types"
	"fastreg/internal/vclock"
)

// DelayFn computes the one-way delay of a message. Returning vclock.Never
// models the paper's skip: the message is delayed past the end of the
// execution.
type DelayFn func(from, to types.ProcID, rng *rand.Rand) vclock.Duration

// ConstDelay returns a DelayFn with a fixed one-way delay.
func ConstDelay(d vclock.Duration) DelayFn {
	return func(_, _ types.ProcID, _ *rand.Rand) vclock.Duration { return d }
}

// UniformDelay returns a DelayFn drawing uniformly from [lo, hi].
func UniformDelay(lo, hi vclock.Duration) DelayFn {
	if hi < lo {
		panic("netsim: UniformDelay hi < lo")
	}
	return func(_, _ types.ProcID, rng *rand.Rand) vclock.Duration {
		return lo + vclock.Duration(rng.Int63n(int64(hi-lo)+1))
	}
}

// Skip wraps a DelayFn so that messages between client c and server s (both
// directions) are never delivered — the paper's "round-trip skips server s"
// made permanent for the pair.
func Skip(base DelayFn, c, s types.ProcID) DelayFn {
	return func(from, to types.ProcID, rng *rand.Rand) vclock.Duration {
		if (from == c && to == s) || (from == s && to == c) {
			return vclock.Never
		}
		return base(from, to, rng)
	}
}

// event is one scheduled action. Events with equal time fire in scheduling
// order (seq), keeping runs deterministic.
type event struct {
	at  vclock.Time
	seq int64
	fn  func()
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() any     { old := *q; n := len(old); e := old[n-1]; *q = old[:n-1]; return e }
func (q eventQueue) peek() *event  { return q[0] }

var _ heap.Interface = (*eventQueue)(nil)

// Horizon is the virtual time beyond which events are considered
// undeliverable within the execution; skipped messages land past it.
const Horizon vclock.Time = vclock.Time(vclock.Never) / 2

// Stats summarizes a run.
type Stats struct {
	Delivered     int // messages delivered
	DroppedCrash  int // requests dropped at crashed servers
	Undeliverable int // events beyond the horizon (skips)
	Completed     int // operations that responded
}

// Sim is the deterministic discrete-event simulator.
type Sim struct {
	cfg      quorum.Config
	protocol register.Protocol

	servers map[types.ProcID]register.ServerLogic
	writers map[types.ProcID]register.Writer
	readers map[types.ProcID]register.Reader

	clock *vclock.Clock
	rec   *history.Recorder
	delay DelayFn
	rng   *rand.Rand

	queue   eventQueue
	seq     int64
	now     vclock.Time
	crashAt map[types.ProcID]vclock.Time
	opSeq   map[types.ProcID]uint64
	runs    []*opRun
	stats   Stats
}

// Option configures a Sim.
type Option func(*Sim)

// WithDelay sets the message delay model (default: constant 10).
func WithDelay(d DelayFn) Option { return func(s *Sim) { s.delay = d } }

// WithSeed seeds the simulator's RNG (default 1).
func WithSeed(seed int64) Option {
	return func(s *Sim) { s.rng = rand.New(rand.NewSource(seed)) }
}

// New builds a cluster: cfg.S servers, cfg.W writers and cfg.R readers of
// the given protocol.
func New(cfg quorum.Config, p register.Protocol, opts ...Option) (*Sim, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	clock := &vclock.Clock{}
	s := &Sim{
		cfg:      cfg,
		protocol: p,
		servers:  make(map[types.ProcID]register.ServerLogic, cfg.S),
		writers:  make(map[types.ProcID]register.Writer, cfg.W),
		readers:  make(map[types.ProcID]register.Reader, cfg.R),
		clock:    clock,
		rec:      history.NewRecorder(clock),
		delay:    ConstDelay(10),
		rng:      rand.New(rand.NewSource(1)),
		crashAt:  make(map[types.ProcID]vclock.Time),
		opSeq:    make(map[types.ProcID]uint64),
	}
	for _, o := range opts {
		o(s)
	}
	for i := 1; i <= cfg.S; i++ {
		id := types.Server(i)
		s.servers[id] = p.NewServer(id, cfg)
	}
	for i := 1; i <= cfg.W; i++ {
		id := types.Writer(i)
		s.writers[id] = p.NewWriter(id, cfg)
	}
	for i := 1; i <= cfg.R; i++ {
		id := types.Reader(i)
		s.readers[id] = p.NewReader(id, cfg)
	}
	return s, nil
}

// MustNew is New that panics on error, for tests and examples.
func MustNew(cfg quorum.Config, p register.Protocol, opts ...Option) *Sim {
	s, err := New(cfg, p, opts...)
	if err != nil {
		panic(err)
	}
	return s
}

// Config returns the cluster shape.
func (s *Sim) Config() quorum.Config { return s.cfg }

// Protocol returns the protocol under simulation.
func (s *Sim) Protocol() register.Protocol { return s.protocol }

// Writer returns writer w_i.
func (s *Sim) Writer(i int) register.Writer { return s.writers[types.Writer(i)] }

// Reader returns reader r_i.
func (s *Sim) Reader(i int) register.Reader { return s.readers[types.Reader(i)] }

// Server returns the logic of server s_i (for inspection in tests).
func (s *Sim) Server(i int) register.ServerLogic { return s.servers[types.Server(i)] }

// Now returns the current virtual time.
func (s *Sim) Now() vclock.Time { return s.now }

// History returns a snapshot of the execution so far. Pending two-round
// writes have their recorded argument refreshed (the tag is assigned after
// round 1), so reads of in-flight values stay matchable by the checker.
func (s *Sim) History() history.History {
	for _, run := range s.runs {
		if !run.done {
			s.rec.UpdateValue(run.ref, run.op.Arg())
		}
	}
	return s.rec.History()
}

// Stats returns delivery statistics.
func (s *Sim) Stats() Stats { return s.stats }

// CrashServer makes server id stop replying from virtual time at onward.
// It models the crash-failure model of Section 2.1: a crashed server
// silently drops every subsequent request.
func (s *Sim) CrashServer(id types.ProcID, at vclock.Time) {
	if id.Role != types.RoleServer {
		panic("netsim: CrashServer on non-server " + id.String())
	}
	if old, ok := s.crashAt[id]; !ok || at < old {
		s.crashAt[id] = at
	}
}

// Crashed reports whether id is crashed at time t.
func (s *Sim) crashed(id types.ProcID, t vclock.Time) bool {
	at, ok := s.crashAt[id]
	return ok && t >= at
}

func (s *Sim) schedule(at vclock.Time, fn func()) {
	s.seq++
	heap.Push(&s.queue, &event{at: at, seq: s.seq, fn: fn})
}

// opRun tracks one in-flight operation.
type opRun struct {
	op       register.Operation
	ref      history.Ref
	roundSeq int
	need     int
	replies  []register.Reply
	got      map[types.ProcID]bool
	done     bool
	onDone   func(types.Value, error)
}

// InvokeAt schedules operation op to start at virtual time at. onDone (may
// be nil) fires when the operation responds; it runs inside the event loop,
// so it may invoke follow-up operations.
func (s *Sim) InvokeAt(at vclock.Time, op register.Operation, onDone func(types.Value, error)) {
	s.schedule(at, func() { s.startOp(op, onDone) })
}

func (s *Sim) nextOpID(client types.ProcID) uint64 {
	s.opSeq[client]++
	return s.opSeq[client]
}

func (s *Sim) startOp(op register.Operation, onDone func(types.Value, error)) {
	client := op.Client()
	run := &opRun{op: op, ref: s.rec.Invoke(client, s.nextOpID(client), op.Kind(), op.Arg()), onDone: onDone}
	s.runs = append(s.runs, run)
	s.broadcast(run, op.Begin())
}

func (s *Sim) broadcast(run *opRun, r register.Round) {
	run.roundSeq++
	run.need = r.Need
	run.replies = run.replies[:0]
	run.got = make(map[types.ProcID]bool, s.cfg.S)
	round := run.roundSeq
	client := run.op.Client()
	for i := 1; i <= s.cfg.S; i++ {
		srv := types.Server(i)
		d := s.delay(client, srv, s.rng)
		at := s.now.Add(d)
		s.schedule(at, func() { s.deliverRequest(run, round, srv, r.Payload) })
	}
}

func (s *Sim) deliverRequest(run *opRun, round int, srv types.ProcID, payload proto.Message) {
	if s.now >= Horizon {
		s.stats.Undeliverable++
		return
	}
	if s.crashed(srv, s.now) {
		s.stats.DroppedCrash++
		return
	}
	s.stats.Delivered++
	client := run.op.Client()
	reply := s.servers[srv].Handle(client, payload)
	if reply == nil {
		return
	}
	d := s.delay(srv, client, s.rng)
	s.schedule(s.now.Add(d), func() { s.deliverReply(run, round, srv, reply) })
}

func (s *Sim) deliverReply(run *opRun, round int, srv types.ProcID, reply proto.Message) {
	if s.now >= Horizon {
		s.stats.Undeliverable++
		return
	}
	if run.done || round != run.roundSeq || run.got[srv] {
		return // stale round, duplicate, or already-finished op
	}
	s.stats.Delivered++
	run.got[srv] = true
	run.replies = append(run.replies, register.Reply{From: srv, Msg: reply})
	if len(run.replies) < run.need {
		return
	}
	next, res, done, err := run.op.Next(run.replies)
	switch {
	case err != nil:
		run.done = true
		s.rec.Respond(run.ref, types.Value{}, err)
		s.stats.Completed++
		if run.onDone != nil {
			run.onDone(types.Value{}, err)
		}
	case done:
		run.done = true
		s.rec.Respond(run.ref, res, nil)
		s.stats.Completed++
		if run.onDone != nil {
			run.onDone(res, nil)
		}
	default:
		s.broadcast(run, *next)
	}
}

// Run processes events until the queue is empty or only undeliverable
// (post-horizon) events remain. It returns the statistics of the run.
func (s *Sim) Run() Stats {
	for len(s.queue) > 0 {
		if s.queue.peek().at >= Horizon {
			// Everything left is a skipped message: the execution is over.
			s.stats.Undeliverable += len(s.queue)
			s.queue = s.queue[:0]
			break
		}
		e := heap.Pop(&s.queue).(*event)
		s.now = e.at
		s.clock.AdvanceTo(e.at)
		e.fn()
	}
	return s.stats
}

// RunUntil processes events with time < deadline, leaving later events
// queued. Useful for injecting crashes or new operations mid-execution.
func (s *Sim) RunUntil(deadline vclock.Time) Stats {
	for len(s.queue) > 0 && s.queue.peek().at < deadline {
		if s.queue.peek().at >= Horizon {
			break
		}
		e := heap.Pop(&s.queue).(*event)
		s.now = e.at
		s.clock.AdvanceTo(e.at)
		e.fn()
	}
	if s.now < deadline {
		s.now = deadline
		s.clock.AdvanceTo(deadline)
	}
	return s.stats
}

// ServerValues returns each server's current maximal value, for inspection.
func (s *Sim) ServerValues() map[types.ProcID]types.Value {
	out := make(map[types.ProcID]types.Value, len(s.servers))
	for id, logic := range s.servers {
		out[id] = logic.CurrentValue()
	}
	return out
}

// String describes the simulator state briefly.
func (s *Sim) String() string {
	return fmt.Sprintf("netsim.Sim{%s proto=%s now=%d pending=%d}", s.cfg, s.protocol.Name(), s.now, len(s.queue))
}
