package obs

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// slowRingCap bounds the retained slow-op records; /debug/slowops serves
// the most recent slowRingCap of them.
const slowRingCap = 64

// Stage is one mark on an operation's round timeline: a name
// ("queued", "sent", "quorum", "done"), the round it belongs to (0 for
// op-scoped marks), and its offset from the operation's start.
type Stage struct {
	Name  string        `json:"name"`
	Round uint8         `json:"round,omitempty"`
	At    time.Duration `json:"at_ns"`
}

// SlowOp is one operation that exceeded the tracer's threshold,
// preserved with its full round timeline.
type SlowOp struct {
	Key    string        `json:"key"`
	Kind   string        `json:"kind"`
	Client string        `json:"client"`
	Start  time.Time     `json:"start"`
	Total  time.Duration `json:"total_ns"`
	Stages []Stage       `json:"stages"`
}

// String renders one human-readable trace line:
//
//	slow write key="k" client=w2 total=52ms queued@0s r1:sent@12µs r1:quorum@50ms done@52ms
func (s SlowOp) String() string {
	out := fmt.Sprintf("slow %s key=%q client=%s total=%v", s.Kind, s.Key, s.Client, s.Total)
	for _, st := range s.Stages {
		if st.Round > 0 {
			out += fmt.Sprintf(" r%d:%s@%v", st.Round, st.Name, st.At)
		} else {
			out += fmt.Sprintf(" %s@%v", st.Name, st.At)
		}
	}
	return out
}

// Tracer records per-operation round timelines and keeps (and
// optionally prints) every operation slower than its threshold. The
// recording path is pooled: a live trace is an *OpTrace checked out by
// Start and retired by Finish, and only operations that actually exceed
// the threshold allocate a retained SlowOp. A nil *Tracer is the
// disabled tracer: Start returns nil, and a nil *OpTrace swallows every
// Mark — so an untraced operation pays one nil check per would-be mark.
//
//lint:nildisabled
type Tracer struct {
	threshold time.Duration
	out       io.Writer // optional line sink for slow dumps (nil = none)

	slow atomic.Int64 // total ops over threshold since start

	mu   sync.Mutex
	ring []SlowOp
	next int

	pool sync.Pool
}

// NewTracer creates a tracer that retains (and, with a non-nil out,
// prints) every operation taking threshold or longer. threshold 0
// traces every operation — diagnostics only.
func NewTracer(threshold time.Duration, out io.Writer) *Tracer {
	return &Tracer{threshold: threshold, out: out}
}

// Threshold returns the slow-op cutoff.
func (t *Tracer) Threshold() time.Duration {
	if t == nil {
		return 0
	}
	return t.threshold
}

// OpTrace is one in-flight operation's timeline, pooled across
// operations. Not safe for concurrent use — an operation is driven by
// one goroutine at a time, handed over under the pending shard's lock
// (the transport client's round engine), which is the contract
// everywhere in this repo.
//
//lint:nildisabled
type OpTrace struct {
	key, kind, client string
	start             time.Time
	stages            []Stage
}

// Start checks a trace out of the pool for one operation. Returns nil
// on a nil tracer.
func (t *Tracer) Start(key, kind, client string) *OpTrace {
	if t == nil {
		return nil
	}
	tr, _ := t.pool.Get().(*OpTrace)
	if tr == nil {
		tr = &OpTrace{stages: make([]Stage, 0, 8)}
	}
	tr.key, tr.kind, tr.client = key, kind, client
	tr.start = time.Now()
	tr.stages = append(tr.stages[:0], Stage{Name: "queued"})
	return tr
}

// Mark appends one stage at the current offset. Safe on a nil trace.
func (tr *OpTrace) Mark(name string, round uint8) {
	if tr == nil {
		return
	}
	tr.stages = append(tr.stages, Stage{Name: name, Round: round, At: time.Since(tr.start)})
}

// Finish closes the trace: the "done" mark is appended, the total
// compared against the threshold, and the trace returned to the pool.
// Safe with a nil trace (no-op), so callers can pair every Start with
// one Finish unconditionally.
func (t *Tracer) Finish(tr *OpTrace) {
	if t == nil || tr == nil {
		return
	}
	total := time.Since(tr.start)
	if total >= t.threshold {
		t.slow.Add(1)
		rec := SlowOp{
			Key:    tr.key,
			Kind:   tr.kind,
			Client: tr.client,
			Start:  tr.start,
			Total:  total,
			Stages: append(append([]Stage(nil), tr.stages...), Stage{Name: "done", At: total}),
		}
		t.mu.Lock()
		if len(t.ring) < slowRingCap {
			t.ring = append(t.ring, rec)
		} else {
			t.ring[t.next] = rec
			t.next = (t.next + 1) % slowRingCap
		}
		out := t.out
		t.mu.Unlock()
		if out != nil {
			fmt.Fprintln(out, "obs:", rec.String())
		}
	}
	t.pool.Put(tr)
}

// SlowCount reports how many operations have exceeded the threshold
// since the tracer started (including ones the ring has since dropped).
func (t *Tracer) SlowCount() int64 {
	if t == nil {
		return 0
	}
	return t.slow.Load()
}

// SlowOps returns the retained slow operations, oldest first.
func (t *Tracer) SlowOps() []SlowOp {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SlowOp, 0, len(t.ring))
	out = append(out, t.ring[t.next:]...)
	out = append(out, t.ring[:t.next]...)
	return out
}
