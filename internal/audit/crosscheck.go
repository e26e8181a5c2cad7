package audit

import (
	"fmt"
	"maps"
	"slices"
	"strings"

	"fastreg/internal/proto"
	"fastreg/internal/types"
)

// StaleServe is one served-value cross-check finding: a replica's reply
// carried a tag OLDER than a value the same replica had already
// acknowledged (an applied Update) or itself served earlier. Register
// semantics make a replica's stored tag monotone per key, so a stale
// serve is replica-local evidence of lost or forged state — it indicts
// the replica directly, independent of any client's history, and is
// binding on its own log alone.
type StaleServe struct {
	Replica int
	Key     string
	Seq     uint64      // handled-counter position of the stale reply
	Served  types.Value // what the reply carried
	Known   types.Value // the newer value the replica had already committed to
}

// String renders the finding.
func (s StaleServe) String() string {
	return fmt.Sprintf("replica s%d served %s for key %q at seq %d after committing to %s",
		s.Replica, s.Served, s.Key, s.Seq, s.Known)
}

// Conviction is the replica-conduct verdict on one replica: its own log
// shows it serving Serves stale values. Declared reports whether the
// checker was told the replica is untrusted.
type Conviction struct {
	Replica  int
	Serves   int
	Declared bool
}

// Conduct is the replica-conduct half of a verdict, kept apart from
// client-visible atomicity: the replicas the served-value cross-check
// convicts, judged against the budget of t faulty replicas the
// deployment tolerates. It leaves a run clean only when every convicted
// replica was declared untrusted and at most Budget of them are
// convicted.
type Conduct struct {
	Convicted []Conviction // in replica order
	Budget    int
}

// String renders one line per convicted replica, e.g.
// "s5 convicted: 126 stale serves (declared, within budget 1)".
func (c Conduct) String() string {
	var b strings.Builder
	for _, cv := range c.Convicted {
		fmt.Fprintf(&b, "s%d convicted: %d stale serves (", cv.Replica, cv.Serves)
		switch {
		case !cv.Declared:
			b.WriteString("NOT declared untrusted")
		case len(c.Convicted) > c.Budget:
			fmt.Fprintf(&b, "declared, over budget %d: %d replicas convicted", c.Budget, len(c.Convicted))
		default:
			fmt.Fprintf(&b, "declared, within budget %d", c.Budget)
		}
		b.WriteString(")\n")
	}
	return b.String()
}

// serveMonitor replays one replica's handle records through the
// monotonicity check. Records must be fed per key in Seq order —
// capture emission happens outside the shard lock, so a log's append
// order can transpose neighbours; Feed holds out-of-order records back
// and processes contiguous runs, and ForceAdvance drains past gaps when
// no more records can arrive (log end, or the record's epoch retired).
type serveMonitor struct {
	replica int
	keys    map[string]*serveKey
}

type serveKey struct {
	next  uint64 // next handled-counter value expected (Seq starts at 1)
	hold  map[uint64]proto.TraceRecord
	known types.Value // max tag acked or served so far
}

func newServeMonitor(replica int) *serveMonitor {
	return &serveMonitor{replica: replica, keys: make(map[string]*serveKey)}
}

// Feed consumes one handle record (Seq > 0 required; callers skip
// unordered records) and returns any findings the newly contiguous run
// produced.
func (m *serveMonitor) Feed(rec proto.TraceRecord) []StaleServe {
	sk, ok := m.keys[rec.Key]
	if !ok {
		sk = &serveKey{next: 1, hold: make(map[uint64]proto.TraceRecord)}
		m.keys[rec.Key] = sk
	}
	if rec.Seq < sk.next {
		return nil // duplicate (retried capture); already processed
	}
	sk.hold[rec.Seq] = rec
	return m.drain(rec.Key, sk, false)
}

// ForceAdvance processes every held-back record in Seq order, skipping
// gaps — for when the stream is known complete (file end; the records'
// epochs retired, after which stragglers are dropped upstream anyway).
func (m *serveMonitor) ForceAdvance() []StaleServe {
	var out []StaleServe
	for _, k := range slices.Sorted(maps.Keys(m.keys)) {
		out = append(out, m.drain(k, m.keys[k], true)...)
	}
	return out
}

// servesValue reports whether a reply of kind k reports the replica's
// stored value (⊥ included), which must then be at least every value the
// replica had already applied or served.
func servesValue(k proto.Kind) bool {
	return k == proto.KindQueryAck || k == proto.KindTagAck || k == proto.KindFastReadAck
}

func (m *serveMonitor) drain(key string, sk *serveKey, skipGaps bool) []StaleServe {
	var out []StaleServe
	for len(sk.hold) > 0 {
		rec, ok := sk.hold[sk.next]
		if !ok {
			if !skipGaps {
				return out
			}
			// Jump to the smallest held Seq past the gap.
			sk.next = slices.Min(slices.Collect(maps.Keys(sk.hold)))
			rec = sk.hold[sk.next]
		}
		delete(sk.hold, sk.next)
		sk.next++
		if rec.Payload == proto.KindUpdate && !rec.Val.IsInitial() {
			// An applied write: the replica's stored tag is now ≥ this.
			sk.known = types.MaxValue(sk.known, rec.Val)
		}
		if servesValue(rec.Reply) {
			if rec.ReplyVal.Tag.Less(sk.known.Tag) {
				out = append(out, StaleServe{
					Replica: m.replica, Key: key, Seq: sk.next - 1,
					Served: rec.ReplyVal, Known: sk.known,
				})
			}
			sk.known = types.MaxValue(sk.known, rec.ReplyVal)
		}
	}
	return out
}
