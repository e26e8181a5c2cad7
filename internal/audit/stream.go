package audit

import (
	"fmt"
	"maps"
	"os"
	"slices"

	"fastreg/internal/obs"
	"fastreg/internal/quorum"
	"fastreg/internal/types"
)

// This file is the streaming driver of the audit's one ingest
// (ingest.go): a Follower tails a capture directory's rotating trace
// logs WHILE the fleet is live, and the ingest files records into
// per-epoch buckets by their explicit epoch tags. Every time the
// weight-throwing coordinator's boundary stamp lands in every log, the
// follower hands a closed three-epoch window to the checker (window.go)
// and emits one EpochVerdict. Memory is O(window): at most three epoch
// buckets are live, retired epochs survive only as the frontier, and log
// bytes are consumed incrementally (never re-read, never held).
//
// Epoch attribution is by record tag, not log position: an op of epoch
// N+1 can respond (and append) before epoch N's boundary is stamped.
// The boundary record is a per-log completeness signal — "every epoch-N
// record this log will ever hold is above this line". Client records
// always respect it (an op's record is appended before its weight
// returns); replica records can straggle when a client gave up on a
// request that a replica later handled. Stragglers and untagged records
// are dropped and counted. A window that dropped any cannot show every
// write, so a violation in it is reported as not binding.

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
	// because their epoch had already been sealed in their log;
	// Unepoched those dropped because they carried no epoch tag.
	Stragglers int
	Unepoched  int

	// Binding reports whether every violation indicts the store: the
	// logs cover every replica, no identity collided and the window
	// dropped no record (see KeyVerdict.Binding).
	Binding bool
}

// String renders the one-line live verdict regaudit prints per epoch.
func (v EpochVerdict) String() string {
	status := "CLEAN"
	if !v.Clean {
		nb := ""
		if !v.Binding {
			nb = ", not binding"
		}
		status = fmt.Sprintf("VIOLATED (%d keys, %d stale serves%s)", len(v.Violations), len(v.Stale), nb)
	}
	s := fmt.Sprintf("epoch %d: %s — %d ops, %d keys", v.Epoch, status, v.Ops, v.Keys)
	if v.Synthesized > 0 {
		s += fmt.Sprintf(", %d synthesized", v.Synthesized)
	}
	if v.Stragglers > 0 {
		s += fmt.Sprintf(", %d stragglers dropped", v.Stragglers)
	}
	if v.Unepoched > 0 {
		s += fmt.Sprintf(", %d unepoched dropped", v.Unepoched)
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
	// Untrusted names the replicas (1-based) the test declares untrusted,
	// e.g. the liars a storm scenario plants. Their logs feed only the
	// replica-conduct half of the verdict: the served-value cross-check
	// convicts them, but their records are never evidence for client-
	// visible atomicity. The set is the caller's knowledge, never read
	// from a log a liar writes.
	Untrusted []int
}

// Follower tails a set of capture logs and emits per-epoch verdicts.
// All methods must be called from one goroutine. It also carries the
// ingest's state (ingest.go), which MergeFiles drives over closed logs.
type Follower struct {
	order []*tailLog // confined to the single driving goroutine
	chunk []byte     // read buffer shared by every log

	// whole files every record in bucket 0 whatever its epoch tag: the
	// offline drain's one unbounded window.
	whole bool

	first   *tailLog // the first log with a header: it fixes the shape
	shape   quorum.Config
	origins []string // client log origin per clock domain

	// Identity ownership across buckets (see synthesize).
	owner    map[types.ProcID]int
	alias    map[domID]types.ProcID
	collided map[types.ProcID]bool

	wc        *WindowChecker
	buckets   map[uint64]*bucket
	finalized uint64 // highest epoch with an emitted verdict
	synthDom  int    // next fresh domain for synthesized writes

	staleBuf               []StaleServe
	stragglers, unepochedN int

	untrusted map[int]bool // FollowOptions.Untrusted
	convicted map[int]int  // stale serves found so far, per replica

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
		owner:     make(map[types.ProcID]int),
		alias:     make(map[domID]types.ProcID),
		collided:  make(map[types.ProcID]bool),
		wc:        &WindowChecker{frontiers: make(map[string]*keyFrontier)},
		buckets:   make(map[uint64]*bucket),
		chunk:     make([]byte, 64<<10),
		synthDom:  synthBase,
		onVerdict: opts.OnVerdict,
		untrusted: make(map[int]bool),
		convicted: make(map[int]int),
	}
	for _, r := range opts.Untrusted {
		f.untrusted[r] = true
	}
	f.wc.label = f.label
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
	for _, l := range f.order {
		if l.Path == path {
			return nil
		}
	}
	fh, err := os.Open(path)
	if err != nil {
		return err
	}
	f.order = append(f.order, &tailLog{TraceFile: TraceFile{Path: path}, f: fh})
	return nil
}

// Poll consumes newly appended bytes from every followed log, then
// finalizes every epoch whose window has closed in all logs, emitting
// verdicts in epoch order. Returns the number of verdicts emitted.
func (f *Follower) Poll() int {
	for _, l := range f.order {
		f.readLog(l)
	}
	f.updateGauges()
	n := 0
	for f.complete(f.finalized + 2) {
		f.finalizeEpoch(f.finalized + 1)
		n++
	}
	return n
}

// Drain finalizes the trailing epochs whose boundaries have landed in
// every log but whose successor never closed (the tail of a finished
// run). Call after the producers have exited: every log is sealed (a
// partial frame is a torn tail), and the trailing windows then hold
// every record they ever will. Returns the number of verdicts emitted.
func (f *Follower) Drain() int {
	f.seal()
	n := 0
	for f.complete(f.finalized + 1) {
		f.finalizeEpoch(f.finalized + 1)
		n++
	}
	f.updateGauges()
	return n
}

// PendingStale reports cross-check findings not yet attached to a
// verdict: those surfaced after the last epoch finalized, or in logs
// that never closed one.
func (f *Follower) PendingStale() []StaleServe { return f.staleBuf }

// Violated reports whether the run so far fails its audit: an epoch
// verdict was violated, or findings not yet attached to a verdict
// convict a replica not declared untrusted, or more than t replicas.
func (f *Follower) Violated() bool {
	return f.ViolatedEpochs > 0 || !f.conductClean(f.staleBuf)
}

// Conduct returns the replica-conduct half of the run's verdict so far:
// every replica with a stale serve on record, judged against the
// declared untrusted set and the shape's t.
func (f *Follower) Conduct() Conduct {
	c := Conduct{Budget: f.shape.T}
	for _, r := range slices.Sorted(maps.Keys(f.convicted)) {
		c.Convicted = append(c.Convicted, Conviction{Replica: r, Serves: f.convicted[r], Declared: f.untrusted[r]})
	}
	return c
}

// flagStale records cross-check findings: they wait in staleBuf for the
// next verdict and count toward their replica's conviction.
func (f *Follower) flagStale(found []StaleServe) {
	for _, s := range found {
		f.convicted[s.Replica]++
	}
	f.staleBuf = append(f.staleBuf, found...)
}

// conductClean reports whether stale serves leave a verdict clean: each
// comes from a replica declared untrusted, and the run has convicted no
// more than t replicas.
func (f *Follower) conductClean(stale []StaleServe) bool {
	if len(stale) == 0 {
		return true
	}
	return len(f.convicted) <= f.shape.T && !slices.ContainsFunc(stale, func(s StaleServe) bool { return !f.untrusted[s.Replica] })
}

// Close releases the followed file handles.
func (f *Follower) Close() {
	for _, l := range f.order {
		if l.f != nil {
			l.f.Close()
			l.f = nil
		}
	}
}

// complete reports whether every live log has stamped epoch n's boundary
// — the per-log signal that no more epoch-n records can legitimately
// appear. Refused and truncated logs will stamp nothing more.
func (f *Follower) complete(n uint64) bool {
	live := func(l *tailLog) bool { return !l.done }
	return slices.ContainsFunc(f.order, live) &&
		!slices.ContainsFunc(f.order, func(l *tailLog) bool { return live(l) && l.sawBoundary < n })
}

// admit returns the bucket a record with the given epoch tag joins, or
// nil when it is dropped. Offline, everything joins bucket 0. Live, a
// record must be tagged at all, must not postdate its own log's boundary
// for that epoch, and its bucket must not have been retired already.
func (f *Follower) admit(l *tailLog, epoch uint64) *bucket {
	switch {
	case f.whole:
		return f.bucket(0)
	case epoch == 0:
		f.unepochedN++
		f.unepoched.Add(1)
		return nil
	case epoch <= l.sawBoundary || epoch <= f.finalized:
		if l.mon == nil {
			// Client records must precede their boundary (the op's record
			// is appended before its weight returns); one arriving late
			// means a completed op is missing from its window and the
			// verdicts cannot be trusted.
			f.warnf("%s: client record for epoch %d arrived after its boundary — verdicts incomplete", l.Path, epoch)
		}
		f.stragglers++
		f.straggler.Add(1)
		return nil
	}
	return f.bucket(epoch)
}

// finalizeEpoch runs the three-epoch window for epoch m, emits its
// verdict, and retires the oldest bucket into the frontier.
func (f *Follower) finalizeEpoch(m uint64) {
	var window []*bucket
	for n := m - 1; n <= m+1; n++ {
		if b, ok := f.buckets[n]; ok {
			f.synthesize(b)
			window = append(window, b)
		}
	}
	_, caveat := f.coverage()
	if drops := f.stragglers + f.unepochedN; caveat == "" && drops > 0 {
		caveat = fmt.Sprintf("%d record(s) were dropped from this window (stragglers or unepoched), so a write may exist that the window does not show", drops)
	}
	v := EpochVerdict{
		Epoch: m, Violations: f.wc.check(window, false, caveat), Stale: f.staleBuf,
		Stragglers: f.stragglers, Unepoched: f.unepochedN, Binding: true,
	}
	f.staleBuf = nil
	f.stragglers, f.unepochedN = 0, 0
	v.Clean = len(v.Violations) == 0 && f.conductClean(v.Stale)
	for _, kv := range v.Violations {
		v.Binding = v.Binding && kv.Binding
	}
	v.Keys = len(windowKeys(window))
	if b, ok := f.buckets[m]; ok {
		v.Synthesized = b.synthCount
		for _, ops := range b.keys {
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

	if b, ok := f.buckets[m-1]; ok {
		f.wc.retire(b)
		delete(f.buckets, m-1)
	}
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
			lag += int64(len(l.buf)) - l.pos
			for n := l.seg; ; n++ {
				st, err := os.Stat(SegmentPath(l.Path, n))
				if err != nil {
					break
				}
				lag += st.Size()
			}
		}
		f.lagBytes.Set(lag)
	}
	if f.windowOps != nil {
		n := 0
		for _, b := range f.buckets {
			for _, ops := range b.keys {
				n += len(ops)
			}
		}
		f.windowOps.Set(int64(n))
	}
	if f.carriedOps != nil {
		// Optional writes carried across windows: the one part of the
		// checker's state that can grow (with failures).
		n := 0
		for _, fr := range f.wc.frontiers {
			n += len(fr.carried)
		}
		f.carriedOps.Set(int64(n))
	}
}

func (f *Follower) warnf(format string, args ...any) {
	f.Warnings = append(f.Warnings, fmt.Sprintf(format, args...))
}
