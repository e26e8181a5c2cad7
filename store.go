package fastreg

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sync/atomic"
	"time"

	"fastreg/internal/atomicity"
	"fastreg/internal/audit"
	"fastreg/internal/epoch"
	"fastreg/internal/history"
	"fastreg/internal/netsim"
	"fastreg/internal/obs"
	"fastreg/internal/register"
	"fastreg/internal/transport"
	"fastreg/internal/types"
)

// captureSeq disambiguates the trace logs of multiple captured Opens in
// one process (the files are named client-<pid>-<seq>.trlog).
var captureSeq atomic.Int64

// Backend is the seam between a Store and the register runtimes: one
// multi-key, context-first contract that both backends satisfy —
// netsim.MultiLive (the in-process fleet) and transport.Client (replicas
// behind real TCP). Open picks the implementation from its options;
// Store.Backend exposes the running one, which is how the backend
// conformance suite drives both through identical code.
//
// Write and Read block until the protocol's operation completes, ctx
// expires (an error wrapping ErrTimeout) or the backend closes; each
// (key, writer) and (key, reader) pair must be used sequentially. Crash
// fails replica s_i — for every key at once in-process, as a client-side
// link severance over TCP. Histories exposes the per-key executions for
// the atomicity checker.
//
// The interface is sealed: its methods exchange internal types (tagged
// values, histories), so implementations outside this module are not
// possible — backend choice is configuration, not an extension point.
type Backend interface {
	Write(ctx context.Context, key string, writer int, data string) (types.Value, error)
	Read(ctx context.Context, key string, reader int) (types.Value, error)
	Crash(i int)
	Histories() map[string]history.History
	Keys() []string
	Close()
}

// Both runtimes satisfy the seam.
var (
	_ Backend = (*netsim.MultiLive)(nil)
	_ Backend = (*transport.Client)(nil)
)

// ErrTimeout reports a store operation abandoned because its context
// expired before a reply quorum arrived — typically more than MaxCrashes
// servers are unreachable. The operation's effect is indeterminate: a
// timed-out Put may still land at the servers.
var ErrTimeout = register.ErrTimeout

// IsTimeout reports whether err is (or wraps) ErrTimeout.
func IsTimeout(err error) bool { return errors.Is(err, ErrTimeout) }

// ErrHandleInUse reports a session handle used from two goroutines at
// once. The register protocols require each writer and reader identity to
// issue operations sequentially (well-formed histories); a handle detects
// the violation and rejects the overlapping call instead of silently
// corrupting the protocol's client state.
var ErrHandleInUse = errors.New("fastreg: handle used concurrently")

// Store is a replicated key-value store — one multi-writer atomic
// register per key, composed atomically by the locality property of
// Section 2.1 — over any Backend. Open is the only constructor; the
// backend (an in-process fleet, or a TCP client of a deployed regserver
// fleet) is chosen by options, so the code driving a Store is identical
// across deployment shapes.
//
// Clients are session handles: Writer(i) and Reader(i) bind an identity
// once and return a handle whose methods are context-first. Out-of-range
// identities fail at handle creation; concurrent use of one handle —
// illegal under the protocols' well-formedness requirement — is caught
// per call (ErrHandleInUse).
type Store struct {
	cfg     Config
	b       Backend
	writers []*Writer
	readers []*Reader
	capture []*audit.Writer // trace logs to flush+close with the store

	// coord drives continuous-audit epoch cutover (nil without
	// WithAuditEpochs); epochDone stops its ticker goroutine.
	coord     *epoch.Coordinator
	epochDone chan struct{}

	// obsReg/tracer back Stats and DebugHandler; nil without
	// WithMetrics / WithSlowOpTrace (nil is the disabled state
	// throughout internal/obs).
	obsReg *obs.Registry
	tracer *obs.Tracer
}

// openOptions collects what Open's functional options configure.
type openOptions struct {
	kind        backendKind
	addrs       []string
	evictTTL    time.Duration
	vouchT      int
	captureDir  string
	rotateBytes int64
	epochEvery  time.Duration
	metrics     bool
	slowOp      time.Duration
}

type backendKind int

const (
	backendInProcess backendKind = iota
	backendTCP
)

// Option configures Open.
type Option func(*openOptions)

// WithTCP selects the network backend: the replicas are remote
// cmd/regserver processes listening at addrs ("host:port" for
// s_1..s_Servers, in order), and the store becomes a network client —
// every Put/Get runs the register protocol's rounds over TCP connections
// (one per server, reconnected with backoff after failures). Bound
// operations with their contexts: with more than MaxCrashes servers
// unreachable an unbounded operation blocks, exactly as the protocols'
// model demands, and only a context deadline (ErrTimeout) releases it.
// CrashServer only severs this client's link to the replica.
func WithTCP(addrs ...string) Option {
	return func(o *openOptions) {
		o.kind = backendTCP
		o.addrs = addrs
	}
}

// WithEvictionTTL bounds the store's per-key state: every ttl, keys with
// no operation in flight that went untouched for at least one full ttl
// window (and at most two) are evicted, so a long-running store serving
// a churning key population stops growing without bound. The client
// sweeps its own state — protocol state machines, op counters and the
// key's recorded history — and every replica the store hosts sweeps its
// own on the same ttl: in-process that is all of them, and a key idle at
// every replica expires (Redis EXPIRE semantics: it reads as
// never-written again). Over TCP the replicas belong to the regserver
// fleet and its own -evict-ttl. Evicted histories are gone, so don't
// combine eviction with Check unless every checked key stays hotter than
// the TTL.
func WithEvictionTTL(ttl time.Duration) Option {
	return func(o *openOptions) { o.evictTTL = ttl }
}

// WithCapture enables audit capture: every operation this store
// completes (or fails) is appended, as it responds, to a trace log in
// dir — a "client-<pid>-<n>.trlog" file opened at Open and closed by
// Close. On the in-process backend each of the store's replicas
// additionally writes its own per-replica trace log (the requests it
// handled, through transport.WithServerCapture), so a single process
// captures the same set of logs a deployed fleet does; on the TCP
// backend the replica logs belong to the regserver processes and their
// own -capture flags.
//
// The logs are the input to cmd/regaudit: `regaudit check dir` merges
// every process's log into one multi-client history and re-runs the
// atomicity checker over it — the only way to verify a run that spans
// several client processes, where no single process's clock orders all
// operations. Capture is an observer: record appends are buffered and
// best-effort, and I/O errors never fail store operations. Capture
// cannot be combined with WithEvictionTTL (evicting a key resets its
// history clock, which would corrupt the log's time domain — Open
// rejects the pair).
func WithCapture(dir string) Option {
	return func(o *openOptions) { o.captureDir = dir }
}

// WithCaptureRotation enables size-based rotation of the trace logs
// WithCapture opens: once a log's current segment reaches maxBytes it
// is sealed and writing continues in "<path>.1", "<path>.2", … (see
// audit.Writer.RotateAt). regaudit — offline and follow mode — reads a
// rotation family as one logical log, so long-running captured stores
// stop growing any single file without losing auditability. Requires
// WithCapture; maxBytes must be positive.
func WithCaptureRotation(maxBytes int64) Option {
	return func(o *openOptions) { o.rotateBytes = maxBytes }
}

// WithAuditEpochs turns the capture logs into a CONTINUOUS audit
// stream: the store hosts a weight-throwing epoch coordinator
// (internal/epoch, Huang's termination-detection algorithm) and cuts an
// audit epoch roughly every interval. Each operation borrows weight
// from the current epoch and the transport splits it across the op's
// request frames; replicas forward it back on replies; when ALL weight
// thrown with an epoch's ops has returned, the epoch closes and an
// epoch-boundary record is stamped into every capture log this store
// owns — a history boundary FOUND under live traffic, never imposed:
// no operation ever blocks on a cutover. `regaudit follow` tails the
// logs and emits a per-epoch atomicity verdict while the fleet runs.
//
// Requires WithCapture (the boundaries go into its logs). The store
// stamps every log it owns, in-process replica logs included; replica
// logs written by other processes (regserver -capture) are not stamped —
// co-hosted fleets like cmd/regstorm register their replica writers via
// Store.OnAuditEpoch. interval must be positive.
func WithAuditEpochs(interval time.Duration) Option {
	return func(o *openOptions) { o.epochEvery = interval }
}

// WithVouchedReads hardens the store's reads against Byzantine replicas:
// before the fast read's admissibility selection runs, every value
// reported by at most t servers is discarded. A fabricated value can
// appear in at most t replies when at most t replicas are Byzantine, so
// it never survives the filter — reads return only genuinely written
// values — while any value a correct read may return carries more than t
// honest reports under the fast-read feasibility condition, so nothing
// legitimate is lost. This is the value-authenticity half of the paper's
// Section 5.2 Byzantine extension (full Byzantine atomicity needs echo
// phases and is out of scope, as in the paper).
//
// The filter reasons about the W2R1 fast read's reply vectors; on every
// other protocol it would be unsound — W2R2 and ABD maximize over
// single-server acks a liar controls outright — so Open rejects the
// option unless the protocol is W2R1. t must be at least 1, and at most
// the cluster's crash tolerance makes operational sense.
func WithVouchedReads(t int) Option {
	return func(o *openOptions) { o.vouchT = t }
}

// WithMetrics enables the store's observability core: per-operation
// latency histograms (with p50/p95/p99 extraction) split by kind,
// rounds-per-operation, retry/failure counters, queue-depth and
// live-key-count gauges — surfaced through Store.Stats and the
// DebugHandler's /metrics endpoint. The in-process and TCP backends run
// the same client and record under identical metric names, so their
// numbers are directly comparable; in-process the store's replicas
// record their server.* metrics into the same registry, counters and
// histograms summed over the fleet. Recording costs one or two
// uncontended atomic adds per event; disabled (the default), the
// instrumented paths carry nil metrics and pay a single predictable
// branch — nothing measurable.
func WithMetrics() Option {
	return func(o *openOptions) { o.metrics = true }
}

// WithSlowOpTrace makes every operation carry a round timeline
// (queued→sent→quorum→done) and retains — and dumps to stderr — every
// operation that takes threshold or longer, for the DebugHandler's
// /debug/slowops endpoint and Stats.SlowOps. Tracing is independent of
// WithMetrics and adds one pooled timeline (no steady-state allocation)
// per operation. threshold must be positive.
func WithSlowOpTrace(threshold time.Duration) Option {
	return func(o *openOptions) { o.slowOp = threshold }
}

// Open starts a replicated KV store of the given cluster shape running
// the protocol, on the backend the options select (in-process by
// default). Both backends run transport.Client's round engine and take
// one list of its options; only the replicas differ — in-process
// transport.Servers over channels, or a deployed fleet over TCP. The
// in-process fleet serves every key through key-tagged messages and
// sharded per-key state — O(Servers) goroutines however many keys the
// store holds — and CrashServer stops a replica for every key at once.
func Open(cfg Config, p Protocol, opts ...Option) (*Store, error) {
	impl, err := p.impl()
	if err != nil {
		return nil, err
	}
	var o openOptions
	for _, opt := range opts {
		opt(&o)
	}
	qcfg := cfg.internal()
	if err := qcfg.Validate(); err != nil {
		return nil, err
	}
	if err := o.validate(cfg, p); err != nil {
		return nil, err
	}

	var (
		copts   []transport.ClientOption
		sopts   []transport.ServerOption // every in-process replica's
		capture []*audit.Writer
		replica []*audit.Writer // in-process replica logs, s_1 first
		obsReg  *obs.Registry
		tracer  *obs.Tracer
	)
	if o.metrics {
		obsReg = obs.New()
		sopts = append(sopts, transport.WithServerObs(obsReg, 0))
	}
	if o.slowOp > 0 {
		tracer = obs.NewTracer(o.slowOp, os.Stderr)
	}
	if obsReg != nil || tracer != nil {
		copts = append(copts, transport.WithClientObs(obsReg, tracer))
	}
	if o.vouchT > 0 {
		copts = append(copts, transport.WithVouchedReads(o.vouchT))
	}
	if o.evictTTL > 0 {
		copts = append(copts, transport.WithClientEviction(o.evictTTL))
		sopts = append(sopts, transport.WithServerEviction(o.evictTTL))
	}
	closeCapture := func() {
		for _, w := range capture {
			w.Close()
		}
	}
	if o.captureDir != "" {
		if err := os.MkdirAll(o.captureDir, 0o755); err != nil {
			return nil, fmt.Errorf("fastreg: capture dir: %w", err)
		}
		seq := captureSeq.Add(1)
		label := fmt.Sprintf("client-%d-%d", os.Getpid(), seq)
		cw, err := audit.NewFileWriter(filepath.Join(o.captureDir, label+audit.TraceExt), audit.ClientHeader(label, impl.Name(), qcfg))
		if err != nil {
			return nil, err
		}
		capture = append(capture, cw)
		copts = append(copts, transport.WithOpCapture(cw.Op))
		if o.kind == backendInProcess {
			for i := 1; i <= cfg.Servers; i++ {
				name := fmt.Sprintf("s%d-%d-%d%s", i, os.Getpid(), seq, audit.TraceExt)
				sw, err := audit.NewFileWriter(filepath.Join(o.captureDir, name), audit.ServerHeader(i, impl.Name(), qcfg))
				if err != nil {
					closeCapture()
					return nil, err
				}
				replica = append(replica, sw)
				capture = append(capture, sw)
			}
		}
		if o.rotateBytes > 0 {
			for _, w := range capture {
				w.RotateAt(o.rotateBytes)
			}
		}
	}
	var coord *epoch.Coordinator
	if o.epochEvery > 0 {
		coord = epoch.New(obsReg)
		for _, w := range capture {
			coord.Stamp(w.Epoch)
		}
		copts = append(copts, transport.WithEpochCoordinator(coord))
	}

	var b Backend
	if o.kind == backendTCP {
		b, err = transport.NewClient(qcfg, impl, o.addrs, transport.DialTCP, copts...)
	} else {
		b, err = netsim.NewMultiLive(qcfg, impl,
			netsim.WithMultiClient(copts...),
			netsim.WithMultiServers(func(i int) []transport.ServerOption {
				if replica == nil {
					return sopts
				}
				return append(slices.Clip(sopts), transport.WithServerCapture(replica[i-1].Handle))
			}))
	}
	if err != nil {
		closeCapture()
		return nil, err
	}
	s := &Store{cfg: cfg, b: b, capture: capture, coord: coord, obsReg: obsReg, tracer: tracer}
	if coord != nil {
		s.epochDone = make(chan struct{})
		go func(every time.Duration) {
			t := time.NewTicker(every)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					// A refused cut (previous epoch still draining) is
					// fine — the next tick tries again; at most two
					// epochs are ever live.
					coord.Cut()
				case <-s.epochDone:
					return
				}
			}
		}(o.epochEvery)
	}
	s.writers = make([]*Writer, cfg.Writers)
	for i := range s.writers {
		s.writers[i] = &Writer{store: s, id: i + 1}
	}
	s.readers = make([]*Reader, cfg.Readers)
	for i := range s.readers {
		s.readers[i] = &Reader{store: s, id: i + 1}
	}
	return s, nil
}

// validate refuses option combinations without a meaning, before Open
// creates anything.
func (o *openOptions) validate(cfg Config, p Protocol) error {
	switch {
	case o.kind == backendTCP && len(o.addrs) != cfg.Servers:
		return fmt.Errorf("fastreg: WithTCP got %d addresses for %d servers", len(o.addrs), cfg.Servers)
	case o.slowOp < 0:
		return fmt.Errorf("fastreg: WithSlowOpTrace needs a positive threshold, got %v", o.slowOp)
	case o.vouchT < 0:
		return fmt.Errorf("fastreg: WithVouchedReads needs a fault budget of at least 1, got %d", o.vouchT)
	case o.vouchT > 0 && p != W2R1:
		return fmt.Errorf("fastreg: WithVouchedReads is sound only on the W2R1 fast read (its admissibility vectors are what the filter vouches over); %s reads maximize over single-server replies a Byzantine replica controls outright", p)
	case o.rotateBytes < 0:
		return fmt.Errorf("fastreg: WithCaptureRotation needs a positive size, got %d", o.rotateBytes)
	case o.rotateBytes > 0 && o.captureDir == "":
		return fmt.Errorf("fastreg: WithCaptureRotation requires WithCapture")
	case o.epochEvery < 0:
		return fmt.Errorf("fastreg: WithAuditEpochs needs a positive interval, got %v", o.epochEvery)
	case o.epochEvery > 0 && o.captureDir == "":
		return fmt.Errorf("fastreg: WithAuditEpochs requires WithCapture — epoch boundaries are stamped into its trace logs")
	case o.captureDir != "" && o.evictTTL > 0:
		// Eviction drops a key's state INCLUDING its clock; the re-
		// acquired key restarts at time zero, but the capture log's
		// earlier ops keep their high timestamps in the same clock
		// domain — the merge would read that as a (false, binding)
		// read-from-future. Refuse the combination rather than emit
		// trace logs whose verdicts can lie.
		return fmt.Errorf("fastreg: WithCapture cannot be combined with WithEvictionTTL — evicting a key resets its history clock, which would corrupt the trace log's per-process time domain")
	}
	return nil
}

// Writer returns the session handle for writer w_i (1-based). The handle
// binds the identity once — its methods never take a writer index — and
// the same handle is returned for the same i, so the per-handle
// sequential-use guard covers every caller of that identity.
func (s *Store) Writer(i int) (*Writer, error) {
	if i < 1 || i > s.cfg.Writers {
		return nil, fmt.Errorf("fastreg: writer %d out of range [1,%d]", i, s.cfg.Writers)
	}
	return s.writers[i-1], nil
}

// Reader returns the session handle for reader r_i (1-based); see Writer.
func (s *Store) Reader(i int) (*Reader, error) {
	if i < 1 || i > s.cfg.Readers {
		return nil, fmt.Errorf("fastreg: reader %d out of range [1,%d]", i, s.cfg.Readers)
	}
	return s.readers[i-1], nil
}

// Backend returns the running backend — the seam conformance tests and
// low-level tooling drive directly. Most callers never need it.
func (s *Store) Backend() Backend { return s.b }

// OnAuditEpoch registers fn to run each time an audit epoch closes
// (all weight home), with the closed epoch's number — the hook
// co-hosted fleets (cmd/regstorm) use to stamp the boundary into
// replica trace logs they own in the same process. fn must be fast and
// must not call back into the store. Fails unless the store was opened
// WithAuditEpochs.
func (s *Store) OnAuditEpoch(fn func(epoch uint64)) error {
	if s.coord == nil {
		return fmt.Errorf("fastreg: OnAuditEpoch requires WithAuditEpochs")
	}
	s.coord.Stamp(fn)
	return nil
}

// Connect eagerly reaches for every replica and reports how many are
// reachable right now: on the TCP backend it dials all servers
// (advisory — operations dial lazily anyway); in-process every replica
// not crashed is connected already.
func (s *Store) Connect() int {
	return s.b.(interface{ Connect() int }).Connect()
}

// CrashServer crashes server s_i (1-based) for every key's register. On
// the TCP backend this severs only this client's link to the replica —
// the replica itself lives in another process and keeps serving others.
// Either way, with more than MaxCrashes servers crashed every operation
// fails fast with a protocol error. An index outside [1, Servers]
// panics: there is no such replica to crash, on any backend.
func (s *Store) CrashServer(i int) {
	if i < 1 || i > s.cfg.Servers {
		panic(fmt.Sprintf("fastreg: CrashServer(%d) out of range [1,%d]", i, s.cfg.Servers))
	}
	s.b.Crash(i)
}

// Keys lists the keys touched so far.
func (s *Store) Keys() []string { return s.b.Keys() }

// Check verifies atomicity (Definition 2.1) of every per-key history; it
// returns the first violation found, or an all-clear result. By locality,
// per-key atomicity is atomicity of the whole store.
func (s *Store) Check() CheckResult {
	total := 0
	for key, h := range s.b.Histories() {
		res := atomicity.Check(h)
		total += len(h.Completed())
		if !res.Atomic {
			return CheckResult{
				Atomic:      false,
				Explanation: "key " + key + ": " + res.String(),
				Operations:  total,
			}
		}
	}
	return CheckResult{Atomic: true, Explanation: "all per-key histories atomic", Operations: total}
}

// Config returns the cluster shape.
func (s *Store) Config() Config { return s.cfg }

// Close shuts the store (and its backend) down, then flushes and closes
// any trace logs WithCapture opened — regaudit reads complete logs once
// the process is done with them. Operations after Close fail with the
// transport's "closed" error.
func (s *Store) Close() {
	if s.epochDone != nil {
		close(s.epochDone)
	}
	s.b.Close()
	if s.coord != nil {
		// One final cutover now that every operation has returned its
		// weight: the last traffic-bearing epoch closes and stamps its
		// boundary, so a follower can finalize it. Retry briefly — a
		// previous close's stamping may still be in flight.
		for i := 0; i < 1000 && !s.coord.Cut(); i++ {
			time.Sleep(time.Millisecond)
		}
	}
	for _, w := range s.capture {
		w.Close()
	}
}

// Writer is the session handle of one writer identity: w_i bound at
// creation, operations context-first. The protocols require each writer
// to issue operations sequentially (distinct writers may run
// concurrently); the handle enforces it, failing an overlapping call
// with ErrHandleInUse instead of corrupting protocol state.
type Writer struct {
	store *Store
	id    int
	busy  atomic.Bool
}

// Index returns the 1-based writer index the handle is bound to.
func (w *Writer) Index() int { return w.id }

// Put writes value under key and returns the version assigned. It blocks
// until the protocol's write completes or ctx expires (ErrTimeout) — a
// timed-out write's effect is indeterminate: it may still land at the
// servers.
func (w *Writer) Put(ctx context.Context, key, value string) (Version, error) {
	if !w.busy.CompareAndSwap(false, true) {
		return Version{}, fmt.Errorf("%w: writer %d", ErrHandleInUse, w.id)
	}
	defer w.busy.Store(false)
	v, err := w.store.b.Write(ctx, key, w.id, value)
	if err != nil {
		return Version{}, err
	}
	return versionOf(v), nil
}

// Reader is the session handle of one reader identity: r_i bound at
// creation, operations context-first; see Writer for the sequential-use
// contract.
type Reader struct {
	store *Store
	id    int
	busy  atomic.Bool
}

// Index returns the 1-based reader index the handle is bound to.
func (r *Reader) Index() int { return r.id }

// Get reads key, returning its value and version; ok is false for
// never-written keys. It blocks until the protocol's read completes or
// ctx expires (ErrTimeout).
func (r *Reader) Get(ctx context.Context, key string) (value string, ver Version, ok bool, err error) {
	if !r.busy.CompareAndSwap(false, true) {
		return "", Version{}, false, fmt.Errorf("%w: reader %d", ErrHandleInUse, r.id)
	}
	defer r.busy.Store(false)
	v, err := r.store.b.Read(ctx, key, r.id)
	if err != nil {
		return "", Version{}, false, err
	}
	return v.Data, versionOf(v), !v.IsInitial(), nil
}
