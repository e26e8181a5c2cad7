package audit

import (
	"errors"
	"fmt"
	"os"
	"sort"

	"fastreg/internal/history"
	"fastreg/internal/obs"
	"fastreg/internal/proto"
	"fastreg/internal/types"
	"fastreg/internal/vclock"
)

// This file is the streaming half of the continuous audit: a Follower
// tails a capture directory's rotating trace logs WHILE the fleet is
// live, groups records into per-epoch buckets by their explicit epoch
// tags, and — every time the weight-throwing coordinator's boundary
// stamp lands in every log — hands a closed window to the windowed
// checker and emits one EpochVerdict. Memory is O(window): at most
// three epoch buckets are live, retired epochs survive only as the
// frontier, and log bytes are consumed incrementally (never re-read,
// never held).
//
// Epoch attribution is by record tag, not log position: an op of epoch
// N+1 can respond (and append) before epoch N's boundary is stamped.
// The boundary record is a per-log completeness signal — "every epoch-N
// record this log will ever hold is above this line". Client records
// always respect it (an op's record is appended before its weight
// returns); replica records can straggle when a client gave up on a
// request that a replica later handled. Stragglers are dropped and
// counted — sound, because replica records are optional evidence only.

// EpochVerdict is one closed epoch's verdict from the streaming
// checker: the windowed equivalent of a Report, emitted live.
type EpochVerdict struct {
	Epoch uint64
	Clean bool

	// Ops counts completed client operations attributed to the epoch
	// itself; Keys the keys its window touched; Synthesized the
	// replica-evidence writes added to the epoch's bucket.
	Ops         int
	Keys        int
	Synthesized int

	// Violations holds the keys whose window admits no linearization
	// under any frontier base; Stale the served-value cross-check
	// findings surfaced since the previous verdict.
	Violations []KeyVerdict
	Stale      []StaleServe

	// Stragglers counts records dropped since the previous verdict
	// because their epoch had already been sealed in their log.
	Stragglers int
}

// String renders the one-line live verdict regaudit prints per epoch.
func (v EpochVerdict) String() string {
	status := "CLEAN"
	if !v.Clean {
		status = fmt.Sprintf("VIOLATED (%d keys, %d stale serves)", len(v.Violations), len(v.Stale))
	}
	s := fmt.Sprintf("epoch %d: %s — %d ops, %d keys", v.Epoch, status, v.Ops, v.Keys)
	if v.Synthesized > 0 {
		s += fmt.Sprintf(", %d synthesized", v.Synthesized)
	}
	if v.Stragglers > 0 {
		s += fmt.Sprintf(", %d stragglers dropped", v.Stragglers)
	}
	return s
}

// FollowOptions configures a Follower. The zero value works: no
// metrics, verdicts collected via the OnVerdict callback only.
type FollowOptions struct {
	// Obs registers the follower's gauges and counters (nil disables).
	Obs *obs.Registry
	// OnVerdict fires once per finalized epoch, in epoch order, from
	// the Poll/Drain goroutine.
	OnVerdict func(EpochVerdict)
}

// tailLog is one capture log being followed: a rotation family read
// segment by segment, byte by byte.
type tailLog struct {
	base    string
	seg     int
	f       *os.File
	buf     []byte // undecoded tail of the current read position
	started bool   // header parsed
	done    bool   // corrupt or unreadable; no further reads

	header   proto.TraceRecord
	isServer bool
	replica  int
	dom      int // clock domain (client logs)

	mon         *serveMonitor // served-value cross-check (replica logs)
	sawBoundary uint64        // highest epoch boundary stamped, per-log
}

// followBucket is one epoch's accumulating state before finalization.
type followBucket struct {
	ops        *EpochOps
	clientRefs map[opRef]bool
	evidence   map[opRef]types.Value
	evSeen     map[seenHandle]bool
	evOrder    []opRef
	synthDone  bool
	synthCount int
}

// Follower tails a set of capture logs and emits per-epoch verdicts.
// All methods must be called from one goroutine.
type Follower struct {
	logs   map[string]*tailLog // confined to the single driving goroutine
	order  []*tailLog
	nclien int // client logs seen, for domain numbering

	wc        *WindowChecker
	buckets   map[uint64]*followBucket
	finalized uint64 // highest epoch with an emitted verdict
	synthDom  int    // next fresh domain for synthesized writes

	staleBuf   []StaleServe
	stragglers int

	// Warnings accumulate follow anomalies; callers drain them.
	Warnings []string

	onVerdict func(EpochVerdict)

	// Totals across the run.
	CleanEpochs    int
	ViolatedEpochs int
	TotalOps       int

	epochsClosed, verdictBad, straggler, unepoched *obs.Counter
	lagBytes, windowOps, carriedOps                *obs.Gauge
}

// NewFollower creates an empty follower; add logs with AddLog as they
// appear on disk.
func NewFollower(opts FollowOptions) *Follower {
	f := &Follower{
		logs:      make(map[string]*tailLog),
		wc:        NewWindowChecker(),
		buckets:   make(map[uint64]*followBucket),
		synthDom:  1 << 20, // far above any client-log domain index
		onVerdict: opts.OnVerdict,
	}
	if reg := opts.Obs; reg != nil {
		f.epochsClosed = reg.Counter("audit.follow.epochs_finalized")
		f.verdictBad = reg.Counter("audit.follow.epochs_violated")
		f.straggler = reg.Counter("audit.follow.stragglers_dropped")
		f.unepoched = reg.Counter("audit.follow.unepoched_dropped")
		f.lagBytes = reg.Gauge("audit.follow.merge_lag_bytes")
		f.windowOps = reg.Gauge("audit.follow.window_ops")
		f.carriedOps = reg.Gauge("audit.follow.carried_writes")
	}
	return f
}

// AddLog starts following a base log path (its rotation family).
// Idempotent: known paths are ignored.
func (f *Follower) AddLog(path string) error {
	if _, ok := f.logs[path]; ok {
		return nil
	}
	fh, err := os.Open(path)
	if err != nil {
		return err
	}
	l := &tailLog{base: path, f: fh}
	f.logs[path] = l
	f.order = append(f.order, l)
	return nil
}

// Finalized returns the highest epoch a verdict has been emitted for.
func (f *Follower) Finalized() uint64 { return f.finalized }

// Poll consumes newly appended bytes from every followed log, then
// finalizes every epoch whose window has closed in all logs, emitting
// verdicts in epoch order. Returns the number of verdicts emitted.
func (f *Follower) Poll() int {
	for _, l := range f.order {
		f.readLog(l)
	}
	f.updateGauges()
	n := 0
	for len(f.order) > 0 && f.complete(f.finalized+2) {
		f.finalizeEpoch(f.finalized + 1)
		n++
	}
	return n
}

// Drain finalizes the trailing epochs whose boundaries have landed in
// every log but whose successor never closed (the tail of a finished
// run). Call after the producers have exited and a final Poll made no
// progress; the trailing windows then hold every record they ever
// will. Returns the number of verdicts emitted.
func (f *Follower) Drain() int {
	n := 0
	for len(f.order) > 0 && f.complete(f.finalized+1) {
		f.finalizeEpoch(f.finalized + 1)
		n++
	}
	// Cross-check holdbacks past torn-tail gaps still deserve a verdict.
	for _, l := range f.order {
		if l.mon != nil {
			f.staleBuf = append(f.staleBuf, l.mon.ForceAdvance()...)
		}
	}
	f.updateGauges()
	return n
}

// PendingStale reports cross-check findings not yet attached to a
// verdict (Drain can surface findings after the last epoch finalizes).
func (f *Follower) PendingStale() []StaleServe { return f.staleBuf }

// Close releases the followed file handles.
func (f *Follower) Close() {
	for _, l := range f.order {
		if l.f != nil {
			l.f.Close()
			l.f = nil
		}
	}
}

// complete reports whether every followed log has stamped epoch n's
// boundary — the per-log signal that no more epoch-n records can
// legitimately appear.
func (f *Follower) complete(n uint64) bool {
	for _, l := range f.order {
		if l.sawBoundary < n {
			return false
		}
	}
	return true
}

// readLog consumes available bytes from one log, following rotation.
func (f *Follower) readLog(l *tailLog) {
	if l.done || l.f == nil {
		return
	}
	for {
		chunk := make([]byte, 64<<10)
		n, err := l.f.Read(chunk)
		if n > 0 {
			l.buf = append(l.buf, chunk[:n]...)
			f.decodeLog(l)
			if l.done {
				return
			}
		}
		if err != nil || n == 0 {
			// At the current segment's end: if a successor segment
			// exists, this segment is sealed (rotation never appends to
			// a sealed segment) — move on. Leftover undecoded bytes in
			// a sealed segment are corruption.
			next := SegmentPath(l.base, l.seg+1)
			if _, serr := os.Stat(next); serr != nil {
				return // still the live segment; more bytes may come
			}
			if len(l.buf) > 0 {
				f.warnf("%s: %d undecodable bytes at end of sealed segment %d", l.base, len(l.buf), l.seg)
				l.buf = nil
			}
			l.f.Close()
			nf, oerr := os.Open(next)
			if oerr != nil {
				f.warnf("%s: cannot open segment: %v", next, oerr)
				l.f, l.done = nil, true
				return
			}
			l.f = nf
			l.seg++
			l.started = false // each segment re-opens with a header
		}
	}
}

// decodeLog decodes complete frames from the log's buffer.
func (f *Follower) decodeLog(l *tailLog) {
	for {
		rec, n, err := proto.DecodeTraceRecord(l.buf)
		if err != nil {
			if errors.Is(err, proto.ErrTruncated) {
				return // incomplete frame: wait for more bytes
			}
			f.warnf("%s: corrupt frame, abandoning log: %v", l.base, err)
			l.done = true
			return
		}
		l.buf = l.buf[n:]
		f.consume(l, rec)
		if l.done {
			return
		}
	}
}

// consume routes one decoded record.
func (f *Follower) consume(l *tailLog, rec proto.TraceRecord) {
	if !l.started {
		if rec.Kind != proto.TraceHeader {
			f.warnf("%s: segment %d does not open with a header", l.base, l.seg)
			l.done = true
			return
		}
		l.started = true
		if l.seg == 0 {
			l.header = rec
			if rec.Server.Role == types.RoleServer {
				l.isServer = true
				l.replica = rec.Server.Index
				l.mon = newServeMonitor(l.replica)
			} else {
				l.dom = f.nclien
				f.nclien++
			}
		}
		return
	}
	switch rec.Kind {
	case proto.TraceHeader:
		f.warnf("%s: header mid-segment — corruption, abandoning log", l.base)
		l.done = true
	case proto.TraceEpoch:
		if rec.Epoch > l.sawBoundary {
			l.sawBoundary = rec.Epoch
		}
	case proto.TraceClientOp:
		if !f.admit(l, rec.Epoch) {
			return
		}
		b := f.bucket(rec.Epoch)
		op := history.Op{
			Client:   rec.Client,
			OpID:     rec.OpID,
			Kind:     rec.Op,
			Invoke:   vclock.Time(rec.Invoke),
			Response: vclock.Time(rec.Response),
			Value:    rec.Val,
			Epoch:    rec.Epoch,
		}
		if rec.Failed {
			op.Err = &capturedError{msg: rec.Err}
		}
		b.ops.Add(rec.Key, op, l.dom)
		b.clientRefs[recRef(rec)] = true
	case proto.TraceServerHandle:
		// The cross-check consumes every ordered handle record, even
		// epoch stragglers — replica monotonicity has no epochs.
		if l.mon != nil && rec.Seq > 0 {
			f.staleBuf = append(f.staleBuf, l.mon.Feed(rec)...)
		}
		if rec.Payload != proto.KindUpdate || rec.Client.Role != types.RoleWriter || rec.Val.IsInitial() {
			return
		}
		if !f.admit(l, rec.Epoch) {
			return
		}
		b := f.bucket(rec.Epoch)
		ref := recRef(rec)
		sh := seenHandle{ref: ref, replica: l.replica, round: rec.Round}
		if b.evSeen[sh] {
			return // retried round
		}
		b.evSeen[sh] = true
		if _, ok := b.evidence[ref]; !ok {
			b.evidence[ref] = rec.Val
			b.evOrder = append(b.evOrder, ref)
		}
	}
}

// admit decides whether a record with the given epoch tag may still
// enter a bucket: it must be tagged at all, must not postdate its own
// log's boundary for that epoch, and its bucket must not have been
// retired already.
func (f *Follower) admit(l *tailLog, epoch uint64) bool {
	if epoch == 0 {
		f.unepoched.Add(1)
		return false
	}
	if epoch <= l.sawBoundary || epoch <= f.finalized {
		if !l.isServer {
			// Client records must precede their boundary (the op's record
			// is appended before its weight returns); one arriving late
			// means a completed op is missing from its window and the
			// verdicts cannot be trusted.
			f.warnf("%s: client record for epoch %d arrived after its boundary — verdicts incomplete", l.base, epoch)
		}
		f.stragglers++
		f.straggler.Add(1)
		return false
	}
	return true
}

func (f *Follower) bucket(n uint64) *followBucket {
	b, ok := f.buckets[n]
	if !ok {
		b = &followBucket{
			ops:        NewEpochOps(n),
			clientRefs: make(map[opRef]bool),
			evidence:   make(map[opRef]types.Value),
			evSeen:     make(map[seenHandle]bool),
		}
		f.buckets[n] = b
	}
	return b
}

// ensureSynth adds the epoch's replica-evidence-only writes to its
// bucket as optional pending ops, once, in deterministic order.
func (f *Follower) ensureSynth(n uint64) {
	b, ok := f.buckets[n]
	if !ok || b.synthDone {
		return
	}
	b.synthDone = true
	sort.Slice(b.evOrder, func(i, j int) bool { return b.evOrder[i].less(b.evOrder[j]) })
	for _, ref := range b.evOrder {
		if b.clientRefs[ref] {
			continue
		}
		op := history.Op{
			Client: ref.id.Client,
			OpID:   ref.id.OpID,
			Kind:   types.OpWrite,
			Invoke: 1, // pending: interval unconstrained
			Value:  b.evidence[ref],
			Epoch:  n,
		}
		b.ops.Add(ref.key, op, f.synthDom)
		f.synthDom++
		b.synthCount++
	}
}

func (f *Follower) opsOf(n uint64) *EpochOps {
	if b, ok := f.buckets[n]; ok {
		return b.ops
	}
	return nil
}

// finalizeEpoch runs the three-epoch window for epoch m, emits its
// verdict, and retires the oldest bucket into the frontier.
func (f *Follower) finalizeEpoch(m uint64) {
	f.ensureSynth(m - 1)
	f.ensureSynth(m)
	f.ensureSynth(m + 1)
	window := []*EpochOps{f.opsOf(m - 1), f.opsOf(m), f.opsOf(m + 1)}
	bad := f.wc.Check(window)

	v := EpochVerdict{Epoch: m, Violations: bad, Stale: f.staleBuf, Stragglers: f.stragglers}
	f.staleBuf = nil
	f.stragglers = 0
	v.Clean = len(v.Violations) == 0 && len(v.Stale) == 0
	keySet := make(map[string]bool)
	for _, b := range window {
		if b == nil {
			continue
		}
		for k := range b.Keys {
			keySet[k] = true
		}
	}
	v.Keys = len(keySet)
	if b, ok := f.buckets[m]; ok {
		v.Synthesized = b.synthCount
		for _, ops := range b.ops.Keys {
			for _, o := range ops {
				if o.Done() && o.Err == nil {
					v.Ops++
				}
			}
		}
	}
	f.TotalOps += v.Ops
	if v.Clean {
		f.CleanEpochs++
	} else {
		f.ViolatedEpochs++
		f.verdictBad.Add(1)
	}
	f.epochsClosed.Add(1)

	f.wc.Retire(f.opsOf(m - 1))
	delete(f.buckets, m-1)
	f.finalized = m
	if f.onVerdict != nil {
		f.onVerdict(v)
	}
}

// updateGauges refreshes merge lag (bytes on disk not yet consumed) and
// window size.
func (f *Follower) updateGauges() {
	if f.lagBytes != nil {
		var lag int64
		for _, l := range f.order {
			if l.f == nil {
				continue
			}
			if pos, err := l.f.Seek(0, 1); err == nil {
				if st, err := os.Stat(SegmentPath(l.base, l.seg)); err == nil {
					lag += st.Size() - pos
				}
			}
			for n := l.seg + 1; ; n++ {
				st, err := os.Stat(SegmentPath(l.base, n))
				if err != nil {
					break
				}
				lag += st.Size()
			}
			lag += int64(len(l.buf))
		}
		f.lagBytes.Set(lag)
	}
	if f.windowOps != nil {
		n := 0
		for _, b := range f.buckets {
			for _, ops := range b.ops.Keys {
				n += len(ops)
			}
		}
		f.windowOps.Set(int64(n))
	}
	if f.carriedOps != nil {
		f.carriedOps.Set(int64(f.wc.CarriedOps()))
	}
}

func (f *Follower) warnf(format string, args ...any) {
	f.Warnings = append(f.Warnings, fmt.Sprintf(format, args...))
}
