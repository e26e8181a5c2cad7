package audit

import (
	"cmp"
	"errors"
	"fmt"
	"maps"
	"os"
	"slices"
	"strings"

	"fastreg/internal/history"
	"fastreg/internal/proto"
	"fastreg/internal/quorum"
	"fastreg/internal/types"
	"fastreg/internal/vclock"
)

// This file is the audit's one ingest (see the package doc): capture-log
// bytes become per-key operations here, whichever driver reads them.

// synthBase is the first clock domain of synthesized writes: each gets a
// fresh one, far above any client log's.
const synthBase = 1 << 20

// TraceFile is one capture log — a whole rotation family — as the ingest
// saw it.
type TraceFile struct {
	Path   string
	Header proto.TraceRecord

	// Truncated marks a log that ended mid-frame or in garbage — the
	// expected shape of a process killed with records still buffered. The
	// intact prefix is used; the flag feeds the coverage accounting.
	Truncated bool
}

// IsServer reports whether the log was written by a replica, and which.
func (f *TraceFile) IsServer() (replica int, ok bool) {
	if f.Header.Server.Role == types.RoleServer {
		return f.Header.Server.Index, true
	}
	return 0, false
}

// tailLog is one capture log being read: a rotation family read segment
// by segment, byte by byte.
type tailLog struct {
	TraceFile
	seg     int
	f       *os.File
	buf     []byte // undecoded tail of the current read position
	pos     int64  // bytes read from the current segment
	started bool   // the current segment's header is parsed
	done    bool   // refused, truncated or unreadable: no further reads
	err     error  // why the log was refused

	dom         int           // clock domain (client logs)
	mon         *serveMonitor // served-value cross-check (replica logs)
	sawBoundary uint64        // highest epoch boundary stamped, per-log
}

// bucket is one epoch's (or, offline, the whole run's) operations, grouped
// per key, and the evidence they are settled from before the checker sees
// them. Pending writes among the ops are replica-evidence synthesis.
type bucket struct {
	epoch uint64
	keys  map[string][]history.Op
	// doms[key][i] is the clock domain of keys[key][i]. Domains sit beside
	// the ops rather than in a map keyed by op identity: opIDs are per
	// register, and two client logs driving one identity log the same ID
	// until synthesize re-homes one of them.
	doms map[string][]int

	clientRefs map[opRef]bool  // client-logged ops, by logged identity
	idents     map[domID]bool  // client identities each domain drove
	evidence   map[opRef]*seen // writes replicas handled
	evSeen     map[seenHandle]bool
	evOrder    []opRef
	synthDone  bool
	synthCount int // writes synthesized from replica evidence
	dupHandles int // replica records folded as retried rounds
}

// seen is one write as the replica logs show it.
type seen struct {
	val   types.Value
	other *types.Value // a second value some replica logged for it
	dups  int          // records dropped as retried rounds
}

// domID is one client identity as driven from one clock domain.
type domID struct {
	dom int
	id  types.ProcID
}

// opRef names one operation across the logs: the register key plus the
// op's (client, opID) identity, which is unique only per register key.
type opRef struct {
	key string
	id  history.ID
}

// recRef is the opRef a client-op or server-handle record names.
func recRef(rec proto.TraceRecord) opRef {
	return opRef{key: rec.Key, id: history.ID{Client: rec.Client, OpID: rec.OpID}}
}

// seenHandle identifies one (replica, round) observation of a write, for
// retry deduplication.
type seenHandle struct {
	ref     opRef
	replica int
	round   uint8
}

// readLog consumes the bytes one log has on disk, following rotation. It
// is the one decode loop: a frame cut short waits for more bytes (the
// live tail, or a torn one — seal decides which), while a frame that does
// not decode, or bytes left over in a sealed segment, truncate the log.
func (f *Follower) readLog(l *tailLog) {
	for !l.done && l.f != nil {
		// Rotation seals a segment before it creates the next, so when the
		// successor exists before this read, the read reaches the end of
		// a segment that will never grow.
		next := SegmentPath(l.Path, l.seg+1)
		_, serr := os.Stat(next)
		for !l.done {
			n, err := l.f.Read(f.chunk)
			l.buf = append(l.buf, f.chunk[:n]...)
			l.pos += int64(n)
			f.decode(l)
			if n == 0 || err != nil {
				break
			}
		}
		if serr != nil || l.done {
			return // still the live segment; more bytes may come
		}
		if len(l.buf) > 0 {
			f.truncate(l)
			return
		}
		l.f.Close()
		var err error
		if l.f, err = os.Open(next); err != nil {
			f.warnf("%s: cannot open segment: %v", next, err)
			l.f, l.done = nil, true
			return
		}
		l.seg, l.pos, l.started = l.seg+1, 0, false // each segment re-opens with a header
	}
}

// decode consumes every whole frame in a log's buffer.
func (f *Follower) decode(l *tailLog) {
	for !l.done {
		rec, n, err := proto.DecodeTraceRecord(l.buf)
		if errors.Is(err, proto.ErrTruncated) {
			return // incomplete frame: wait for more bytes
		}
		if err != nil {
			f.truncate(l)
			return
		}
		l.buf = l.buf[n:]
		f.consume(l, rec)
	}
}

// seal declares every log finished — its producer is gone. A log that
// never showed a header is refused, a frame cut short is a torn tail, and
// the cross-check drains its holdbacks past their gaps.
func (f *Follower) seal() {
	for _, l := range f.order {
		f.readLog(l)
		switch {
		case l.err != nil:
		case l.Header.Kind != proto.TraceHeader:
			f.refuse(l, fmt.Errorf("audit: %s: not a capture log", l.Path))
		case len(l.buf) > 0 && !l.done:
			f.truncate(l)
		}
		if l.mon != nil {
			f.flagStale(l.mon.ForceAdvance())
		}
	}
}

// truncate ends a log at its intact prefix.
func (f *Follower) truncate(l *tailLog) {
	l.Truncated, l.done, l.buf = true, true, nil
	f.warnf("%s: log truncated mid-record (process killed?); using the intact prefix", cmp.Or(l.Header.Origin, l.Path))
}

// refuse drops a log the ingest cannot use at all: it contributes no
// records, and counts for neither coverage nor epoch completion.
func (f *Follower) refuse(l *tailLog, err error) {
	l.err, l.done = err, true
	f.warnf("%v", err)
}

// consume routes one decoded record. It is the only place a client-op or
// server-handle record becomes an op or replica evidence.
func (f *Follower) consume(l *tailLog, rec proto.TraceRecord) {
	if !l.started { // every segment opens with the header
		l.started = rec.Kind == proto.TraceHeader
		switch {
		case !l.started && l.seg == 0:
			f.refuse(l, fmt.Errorf("audit: %s: log does not open with a header record", l.Path))
		case !l.started:
			f.truncate(l)
		case l.seg == 0:
			l.Header = rec
			f.join(l)
		}
		return
	}
	switch rec.Kind {
	case proto.TraceHeader:
		f.truncate(l) // a header mid-segment is corruption
	case proto.TraceEpoch:
		l.sawBoundary = max(l.sawBoundary, rec.Epoch)
	case proto.TraceClientOp:
		if l.mon != nil {
			return
		}
		b := f.admit(l, rec.Epoch)
		if b == nil {
			return
		}
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
			// The checker only needs non-nil-ness; operators get the
			// original message.
			op.Err = errors.New(cmp.Or(rec.Err, "operation failed (captured)"))
		}
		b.add(rec.Key, op, l.dom)
		b.clientRefs[recRef(rec)] = true
		b.idents[domID{dom: l.dom, id: rec.Client}] = true
	case proto.TraceServerHandle:
		if l.mon == nil {
			return
		}
		// The cross-check consumes every ordered handle record, even
		// epoch stragglers — replica monotonicity has no epochs.
		if rec.Seq > 0 {
			f.flagStale(l.mon.Feed(rec))
		}
		// Read write-backs relay values; only writer updates originate
		// them. A declared-untrusted replica's log is evidence against
		// the replica only: synthesis takes no write, and so no forged
		// tag, from it.
		if rec.Payload != proto.KindUpdate || rec.Client.Role != types.RoleWriter || rec.Val.IsInitial() || f.untrusted[l.mon.replica] {
			return
		}
		b := f.admit(l, rec.Epoch)
		if b == nil {
			return
		}
		ref := recRef(rec)
		sh := seenHandle{ref: ref, replica: l.mon.replica, round: rec.Round}
		switch ev := b.evidence[ref]; {
		case ev == nil:
			b.evidence[ref] = &seen{val: rec.Val}
			b.evOrder = append(b.evOrder, ref)
		case b.evSeen[sh]:
			ev.dups++ // retried round, at-least-once delivery
		case rec.Val != ev.val && ev.other == nil:
			ev.other = &rec.Val
		}
		b.evSeen[sh] = true
	}
}

// join admits a log whose header just arrived. All logs must describe one
// deployment — the first header read fixes it. A replica log gets its
// served-value monitor, a client log the next clock domain.
func (f *Follower) join(l *tailLog) {
	if f.first == nil {
		f.first = l
		f.shape = quorum.Config{S: l.Header.S, T: l.Header.T, R: l.Header.R, W: l.Header.W}
	} else if h, h0 := l.Header, f.first.Header; h.Protocol != h0.Protocol || h.S != h0.S || h.T != h0.T || h.R != h0.R || h.W != h0.W {
		f.refuse(l, fmt.Errorf("audit: %s (%s %s) does not match %s (%s %s) — logs from different deployments",
			l.Header.Origin, h.Protocol, shapeStr(h), f.first.Header.Origin, h0.Protocol, shapeStr(h0)))
		return
	}
	i, ok := l.IsServer()
	if !ok {
		l.dom = len(f.origins)
		f.origins = append(f.origins, l.Header.Origin)
		return
	}
	l.mon = newServeMonitor(i)
	if slices.ContainsFunc(f.order, func(o *tailLog) bool { j, ok := o.IsServer(); return ok && j == i && o != l && o.err == nil }) {
		f.warnf("multiple logs for replica s%d — a restarted replica or mixed runs; all are used", i)
	}
}

func (f *Follower) bucket(n uint64) *bucket {
	b, ok := f.buckets[n]
	if !ok {
		b = &bucket{
			epoch:      n,
			keys:       make(map[string][]history.Op),
			doms:       make(map[string][]int),
			clientRefs: make(map[opRef]bool),
			idents:     make(map[domID]bool),
			evidence:   make(map[opRef]*seen),
			evSeen:     make(map[seenHandle]bool),
		}
		f.buckets[n] = b
	}
	return b
}

// add files one op under its key with its clock domain.
func (b *bucket) add(key string, op history.Op, dom int) {
	b.keys[key] = append(b.keys[key], op)
	b.doms[key] = append(b.doms[key], dom)
}

// synthesize settles a bucket before its first check. Deciding here, over
// the whole bucket rather than record by record, keeps the outcome
// independent of the order the logs were read in:
//
//   - Identity ownership: each reader/writer identity must live in one
//     client process. A collision (two logs driving w1 — concurrent
//     processes misconfigured, or one identity across merged runs) is
//     survivable for the checker: the lowest domain keeps the identity
//     and every other domain's ops are re-homed to a fresh identity of
//     the same role, so per-op keys stay unique while the domain map
//     still separates the processes. Replica evidence for a collided
//     identity is ambiguous, so synthesis skips it, and coverage is no
//     longer full — reused identities can also collide on tags, which
//     nothing downstream can repair.
//   - Synthesis: each write the replicas saw but no client logged joins
//     as an optional pending write in a fresh domain (consume never takes
//     a declared-untrusted replica's records as evidence) — the checker may
//     linearize it where reads demand, or drop it, which is all a crashed
//     client's write can claim.
func (f *Follower) synthesize(b *bucket) {
	if b.synthDone {
		return
	}
	b.synthDone = true
	f.rehome(b)
	slices.SortFunc(b.evOrder, func(x, y opRef) int { // a deterministic synthesis order
		return cmp.Or(strings.Compare(x.key, y.key), x.id.Client.Compare(y.id.Client), cmp.Compare(x.id.OpID, y.id.OpID))
	})
	for _, ref := range b.evOrder {
		if f.collided[ref.id.Client] {
			continue
		}
		ev := b.evidence[ref]
		b.dupHandles += ev.dups
		if ev.other != nil {
			f.warnf("replicas disagree on the value of %s on key %q (%s vs %s)", ref.id, ref.key, ev.val, *ev.other)
		}
		if b.clientRefs[ref] {
			continue // the client's own record is authoritative
		}
		b.add(ref.key, history.Op{
			Client: ref.id.Client,
			OpID:   ref.id.OpID,
			Kind:   types.OpWrite,
			Invoke: 1, // pending: no response, interval unconstrained
			Value:  ev.val,
			Epoch:  b.epoch,
		}, f.synthDom)
		f.synthDom++
		b.synthCount++
	}
}

// rehome applies identity ownership to a bucket's client ops.
func (f *Follower) rehome(b *bucket) {
	uses := slices.SortedFunc(maps.Keys(b.idents), func(x, y domID) int { return cmp.Or(cmp.Compare(x.dom, y.dom), x.id.Compare(y.id)) })
	for _, u := range uses {
		if _, ok := f.owner[u.id]; !ok {
			f.owner[u.id] = u.dom
		}
	}
	for _, u := range uses {
		prev := f.owner[u.id]
		if _, ok := f.alias[u]; ok || prev == u.dom {
			continue
		}
		if !f.collided[u.id] {
			f.warnf("identity %s appears in both %s and %s — identities must be partitioned across processes (regstorm spec workload.writers/readers); later logs re-homed to a fresh identity and replica evidence for %s ignored",
				u.id, f.origins[prev], f.origins[u.dom], u.id)
			f.collided[u.id] = true
		}
		// Re-homed identities are numbered past the shape's own.
		base := f.shape.W
		if u.id.Role == types.RoleReader {
			base = f.shape.R
		}
		f.alias[u] = types.ProcID{Role: u.id.Role, Index: base + len(f.alias) + 1}
	}
	if len(f.alias) == 0 {
		return
	}
	for key, ops := range b.keys {
		for i := range ops {
			if a, ok := f.alias[domID{dom: b.doms[key][i], id: ops[i].Client}]; ok {
				ops[i].Client = a
			}
		}
	}
}

// coverage counts the shape's replicas whose every log is intact. The
// caveat is empty when that is all S of them and no client identity
// collided — the condition under which every value the fleet ever served
// has a visible origin, making VIOLATED verdicts binding (see the package
// doc).
func (f *Follower) coverage() (intact int, caveat string) {
	torn := make(map[int]bool) // replica → some log of it truncated
	for _, l := range f.order {
		if i, ok := l.IsServer(); ok && l.err == nil && i >= 1 && i <= f.shape.S {
			torn[i] = torn[i] || l.Truncated
		}
	}
	for _, t := range torn {
		if !t {
			intact++
		}
	}
	if intact < f.shape.S || len(f.collided) > 0 {
		caveat = "replica logs are incomplete or identities collided, so a write may exist that no log shows — rerun with every replica capturing to make the verdict binding"
	}
	return intact, caveat
}

// label names the process behind a clock domain: a client log's origin,
// or the replica evidence a synthesized write came from.
func (f *Follower) label(dom int, op history.Op) string {
	switch {
	case dom >= 0 && dom < len(f.origins):
		return f.origins[dom]
	case dom >= synthBase:
		return fmt.Sprintf("replica-evidence(%s)", op.ID())
	}
	return fmt.Sprintf("domain-%d", dom)
}

func shapeStr(h proto.TraceRecord) string {
	return fmt.Sprintf("S=%d t=%d R=%d W=%d", h.S, h.T, h.R, h.W)
}
