package model

import (
	"container/heap"
	"math/rand"

	"fastreg/internal/history"
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
		panic("model: UniformDelay hi < lo")
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

// event is one scheduled step: the invocation of op, or the delivery of m.
// Events with equal time fire in scheduling order (seq), keeping runs
// deterministic.
type event struct {
	at     vclock.Time
	seq    int64
	m      msg
	op     register.Operation
	onDone func(types.Value, error)
}

type eventQueue []event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x any)   { *q = append(*q, x.(event)) }
func (q *eventQueue) Pop() any     { old := *q; n := len(old); e := old[n-1]; *q = old[:n-1]; return e }

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

// Sim is the timed scheduler: a deterministic discrete-event simulation on
// a virtual clock. Message delays are arbitrary (asynchrony) but
// reproducible from a seed; latency is measured in exact virtual time, so
// round-trip counts — the quantity the paper reasons about — translate
// directly into latency shapes.
type Sim struct {
	cfg     quorum.Config
	c       *core
	writers map[types.ProcID]register.Writer
	readers map[types.ProcID]register.Reader

	clock *vclock.Clock
	delay DelayFn
	rng   *rand.Rand

	queue   eventQueue
	seq     int64
	now     vclock.Time
	crashAt map[types.ProcID]vclock.Time
	opSeq   map[types.ProcID]uint64
	onDone  []func(types.Value, error) // by operation index
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
	s := &Sim{
		cfg:     cfg,
		writers: make(map[types.ProcID]register.Writer, cfg.W),
		readers: make(map[types.ProcID]register.Reader, cfg.R),
		clock:   &vclock.Clock{},
		delay:   ConstDelay(10),
		rng:     rand.New(rand.NewSource(1)),
		crashAt: make(map[types.ProcID]vclock.Time),
		opSeq:   make(map[types.ProcID]uint64),
	}
	for _, o := range opts {
		o(s)
	}
	servers := make([]register.ServerLogic, cfg.S)
	for i := range servers {
		servers[i] = p.NewServer(types.Server(i+1), cfg)
	}
	s.c = newCore(servers, s.clock)
	for i := 1; i <= cfg.W; i++ {
		s.writers[types.Writer(i)] = p.NewWriter(types.Writer(i), cfg)
	}
	for i := 1; i <= cfg.R; i++ {
		s.readers[types.Reader(i)] = p.NewReader(types.Reader(i), cfg)
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

// Writer returns writer w_i.
func (s *Sim) Writer(i int) register.Writer { return s.writers[types.Writer(i)] }

// Reader returns reader r_i.
func (s *Sim) Reader(i int) register.Reader { return s.readers[types.Reader(i)] }

// Server returns the logic of server s_i (for inspection in tests).
func (s *Sim) Server(i int) register.ServerLogic { return s.c.servers[i-1] }

// Now returns the current virtual time.
func (s *Sim) Now() vclock.Time { return s.now }

// History returns a snapshot of the execution so far.
func (s *Sim) History() history.History { return s.c.history() }

// CrashServer makes server id stop replying from virtual time at onward.
// It models the crash-failure model of Section 2.1: a crashed server
// silently drops every subsequent request.
func (s *Sim) CrashServer(id types.ProcID, at vclock.Time) {
	if id.Role != types.RoleServer {
		panic("model: CrashServer on non-server " + id.String())
	}
	if old, ok := s.crashAt[id]; !ok || at < old {
		s.crashAt[id] = at
	}
}

// InvokeAt schedules operation op to start at virtual time at. onDone (may
// be nil) fires when the operation responds; it runs inside the event loop,
// so it may invoke follow-up operations.
func (s *Sim) InvokeAt(at vclock.Time, op register.Operation, onDone func(types.Value, error)) {
	s.schedule(event{at: at, op: op, onDone: onDone})
}

func (s *Sim) schedule(e event) {
	s.seq++
	e.seq = s.seq
	heap.Push(&s.queue, e)
}

// send schedules the delivery of m after a delay drawn from the RNG.
func (s *Sim) send(m msg) {
	from, to := s.c.runs[m.op].col.Op().Client(), types.Server(m.srv)
	if m.reply {
		from, to = to, from
	}
	s.schedule(event{at: s.now.Add(s.delay(from, to, s.rng)), m: m})
}

// broadcast sends operation id's open round to every server, in order.
func (s *Sim) broadcast(id int) {
	for srv := 1; srv <= len(s.c.servers); srv++ {
		s.send(msg{op: id, round: s.c.runs[id].col.Round(), srv: srv})
	}
}

// fire takes the step event e stands for. Only steps that record an
// invocation or a response take a stamp on the history clock.
func (s *Sim) fire(e event) {
	s.now = e.at
	s.clock.AdvanceTo(e.at)
	switch m := e.m; {
	case e.op != nil:
		client := e.op.Client()
		s.opSeq[client]++
		s.onDone = append(s.onDone, e.onDone)
		s.broadcast(s.c.invoke(s.clock.Now()+1, e.op, s.opSeq[client]))
	case !m.reply:
		if at, ok := s.crashAt[types.Server(m.srv)]; ok && s.now >= at && !s.c.crashed[m.srv-1] {
			s.c.crash(m.srv)
		}
		reply := s.c.request(m)
		if s.c.crashed[m.srv-1] {
			s.stats.DroppedCrash++
			return
		}
		s.stats.Delivered++
		if reply.payload != nil {
			s.send(reply)
		}
	default:
		if !s.c.reply(m) {
			return
		}
		s.stats.Delivered++
		o := &s.c.runs[m.op].col
		if !o.Ready() {
			return
		}
		s.c.complete(m.op, s.clock.Now()+1)
		if !o.Done() {
			s.broadcast(m.op)
			return
		}
		s.stats.Completed++
		if f := s.onDone[m.op]; f != nil {
			f(o.Result())
		}
	}
}

// Run processes events until the queue is empty or only undeliverable
// (post-horizon) events remain. It returns the statistics of the run.
func (s *Sim) Run() Stats {
	s.drain(Horizon)
	// Everything left is a skipped message: the execution is over.
	s.stats.Undeliverable += len(s.queue)
	s.queue = s.queue[:0]
	return s.stats
}

// RunUntil processes events with time < deadline, leaving later events
// queued. Useful for injecting crashes or new operations mid-execution.
func (s *Sim) RunUntil(deadline vclock.Time) Stats {
	s.drain(min(deadline, Horizon))
	if s.now < deadline {
		s.now = deadline
		s.clock.AdvanceTo(deadline)
	}
	return s.stats
}

// drain fires every event before until, earliest first.
func (s *Sim) drain(until vclock.Time) {
	for len(s.queue) > 0 && s.queue[0].at < until {
		s.fire(heap.Pop(&s.queue).(event))
	}
}

// ServerValues returns each server's current maximal value, for inspection.
func (s *Sim) ServerValues() map[types.ProcID]types.Value {
	out := make(map[types.ProcID]types.Value, len(s.c.servers))
	for i, logic := range s.c.servers {
		out[types.Server(i+1)] = logic.CurrentValue()
	}
	return out
}
