// Package history records executions of clients accessing the shared
// register, in the sense of Section 2.1: a sequence of invocation and
// response events, each tagged with a unique timestamp from the discrete
// global clock.
//
// The recorded history is the input to the atomicity checker
// (internal/atomicity) and to the latency harnesses.
//
// # Storage
//
// Every backend records on the operation's critical path, so a Recorder
// is an append-only log, not a map. The log is a list of chunks that
// never move once allocated: the first chunks hold 4, 7 and 14 ops, so a
// register touched a handful of times stays small; every later chunk
// holds 21. Invoke appends in place and returns a Ref, the op's (chunk,
// slot) address; Respond, RespondAt, RespondFailed, SetEpoch and
// UpdateValue take that Ref, so recording formats no string and inserts
// into no map, and only a new chunk allocates.
//
// A recorded op is kept as a 72-byte record, not as a 112-byte Op: the
// op ID, invocation and response times, the value's tag timestamp and the
// epoch as 8-byte words; the payload as a string; the client's and the
// tag writer's process indexes as uint32; their roles, the kind and a
// flags byte. The chunk sizes fill Go size classes: the runtime puts an
// 8-byte header in front of every object over 512 bytes that holds
// pointers, so 4 and 7 records take 288 and 512 bytes, and 14 and 21
// records with their header 1024 and 1536: no chunk costs more than
// 512/7 ≈ 73.1 bytes per record it holds. What a record cannot hold
// exactly, an op's error and a process index that does not fit a
// uint32, goes to a side map keyed by the op's Ref, and a flag bit on the
// record says so. Nothing is truncated: those ops cost a map entry, the
// common op nothing.
//
// A read's payload may be borrowed: over a network it is cut from the
// reply frame it arrived in (proto.Decode), so keeping it keeps the whole
// frame. A history keeps each read forever, and many clients read one
// value in turn. So the recorder remembers the last value it stored, and
// a value with the same tag and an equal payload is stored with that
// earlier string: a value that many clients read in turn keeps one
// payload, not one per read. A read of any other value is stored as a
// copy of its own (strings.Clone), and Respond returns the stored
// payload, which the client returns in place of its borrowed one, so
// neither the caller nor the sink pins a frame. A write's value is the
// caller's own and is stored as it is. Equal payload, not just equal tag:
// a forged value carrying an honest tag keeps its own payload, so the
// checker still sees the forgery.
//
// History and the sink expand records back into Ops. The checker and
// the capture log take Ops, and expanding on the way out keeps the
// compact layout a private detail of the recorder. History copies the
// log out in invocation order.
//
// # The Ref contract
//
// A Ref is valid only on the Recorder that issued it; using it on
// another recorder addresses an unrelated op or panics past the end of
// the log. Refs are never invalidated while their recorder lives. A
// client-side registry that evicts an idle register drops the recorder
// and every Ref to it together: eviction waits until no operation on the
// register is in flight, and only in-flight operations hold Refs.
package history

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"

	"fastreg/internal/types"
	"fastreg/internal/vclock"
)

// Op is one completed (or still pending) operation in an execution.
type Op struct {
	Client types.ProcID
	OpID   uint64 // client-local sequence number
	Kind   types.OpKind

	Invoke   vclock.Time
	Response vclock.Time // zero while pending

	// Value is the write's argument (tagged) for writes, and the returned
	// value for reads.
	Value types.Value

	// Err records a failed operation (e.g. quorum unreachable); failed ops
	// are excluded from atomicity checking but kept for diagnosis.
	Err error

	// Epoch is the continuous-audit epoch the op borrowed weight from
	// (internal/epoch); zero when no coordinator is attached. It rides the
	// sink snapshot into capture records so the streaming checker can
	// attribute the op to its window.
	Epoch uint64
}

// Done reports whether the operation has responded.
func (o Op) Done() bool { return o.Response != 0 }

// Precedes reports the real-time order O1 ≺σ O2: O1.f < O2.s.
func (o Op) Precedes(p Op) bool {
	return o.Done() && o.Response < p.Invoke
}

// Concurrent reports O1 || O2: neither precedes the other.
func (o Op) Concurrent(p Op) bool {
	return !o.Precedes(p) && !p.Precedes(o)
}

// ID is an operation's identity within one register's history: the
// client that invoked it and that client's sequence number. It is
// comparable, so it keys maps without formatting a string.
type ID struct {
	Client types.ProcID
	OpID   uint64
}

// String renders "w1#5".
func (id ID) String() string { return fmt.Sprintf("%s#%d", id.Client, id.OpID) }

// ID returns the operation's identity.
func (o Op) ID() ID { return ID{Client: o.Client, OpID: o.OpID} }

// Key renders the operation's identity, "w1#5", for diagnostics. Maps
// are keyed by ID.
func (o Op) Key() string { return o.ID().String() }

// String renders "r1#3 read ⇒ (2,w1):"x" [10,25]".
func (o Op) String() string {
	arrow := "⇒"
	if o.Kind == types.OpWrite {
		arrow = "⇐"
	}
	end := "…"
	if o.Done() {
		end = fmt.Sprintf("%d", o.Response)
	}
	return fmt.Sprintf("%s %s %s %s [%d,%s]", o.Key(), o.Kind, arrow, o.Value, o.Invoke, end)
}

// Ref addresses one operation in the Recorder that issued it: the chunk
// of the log it lives in and its slot there (see the package doc). It is
// comparable and free to copy. A Ref past the end of the log panics.
type Ref struct {
	chunk, slot uint32
}

// chunkSizes are the capacities of the log's first chunks; every later
// chunk takes the last size. Small first chunks keep a register touched
// only a few times cheap to create and to hold; each size fills a size
// class (see the package doc).
var chunkSizes = [...]int{4, 7, 14, 21}

// record is one recorded op, packed into 72 bytes (see the package doc).
// The indexes hold a process index only when it fits exactly; otherwise
// a flag bit sends the reader to the recorder's side map.
type record struct {
	opID     uint64
	invoke   vclock.Time
	response vclock.Time
	ts       int64 // the value's tag timestamp
	epoch    uint64
	data     string
	client   uint32 // the client's process index
	wid      uint32 // the tag writer's process index
	role     types.Role
	widRole  types.Role
	kind     types.OpKind
	flags    uint8
}

// Flag bits of a record: which of its fields live in the side map.
const (
	wideClient uint8 = 1 << iota // the client index
	wideWID                      // the tag writer's index
	hasErr                       // the op's error
)

// wide is an op's side-map entry: the fields its record cannot hold.
type wide struct {
	client, wid int
	err         error
}

// narrow returns i as a uint32 when that converts back to i exactly.
func narrow(i int) (uint32, bool) {
	u := uint32(i)
	return u, int(u) == i
}

// Recorder accumulates an execution concurrently. It is safe for use from
// multiple goroutines (the live network) as well as the single-threaded
// simulator.
type Recorder struct {
	mu     sync.Mutex
	clock  *vclock.Clock
	chunks [][]record    // guardedby: mu
	side   map[Ref]*wide // guardedby: mu — nil until an op needs it
	last   types.Value   // guardedby: mu — the last value stored
	sink   func(Op)      // guardedby: mu
}

// NewRecorder creates a Recorder stamping events with clock.
func NewRecorder(clock *vclock.Clock) *Recorder {
	return &Recorder{clock: clock}
}

// SetSink installs a callback invoked with a snapshot of every operation
// the moment it responds (successfully or not) — the hook the audit
// capture layer appends trace records from. The callback runs under the
// recorder's lock, in response order; it must not call back into the
// recorder. Install the sink before recording begins — installation is
// safe against concurrent operations, but ops that respond before it
// lands are not re-delivered.
func (r *Recorder) SetSink(fn func(Op)) {
	r.mu.Lock()
	r.sink = fn
	r.mu.Unlock()
}

// appendLocked appends a zero record to the log, opening a new chunk
// when the last one is full, and returns its Ref and address. Appending
// within a chunk's capacity never reallocates it, so records never move.
func (r *Recorder) appendLocked() (Ref, *record) {
	n := len(r.chunks)
	if n == 0 || len(r.chunks[n-1]) == cap(r.chunks[n-1]) {
		r.chunks = append(r.chunks, make([]record, 0, chunkSizes[min(n, len(chunkSizes)-1)]))
		n++
	}
	c := &r.chunks[n-1]
	*c = (*c)[:len(*c)+1]
	return Ref{chunk: uint32(n - 1), slot: uint32(len(*c) - 1)}, &(*c)[len(*c)-1]
}

// atLocked returns the record ref addresses.
func (r *Recorder) atLocked(ref Ref) *record {
	if int(ref.chunk) >= len(r.chunks) || int(ref.slot) >= len(r.chunks[ref.chunk]) {
		panic(fmt.Sprintf("history: op ref %d/%d past the end of the log", ref.chunk, ref.slot))
	}
	return &r.chunks[ref.chunk][ref.slot]
}

// sideLocked returns ref's side-map entry, creating it.
func (r *Recorder) sideLocked(ref Ref) *wide {
	if r.side == nil {
		r.side = make(map[Ref]*wide)
	}
	w := r.side[ref]
	if w == nil {
		w = new(wide)
		r.side[ref] = w
	}
	return w
}

// invokeLocked appends the invocation of an op at t.
func (r *Recorder) invokeLocked(t vclock.Time, client types.ProcID, opID uint64, kind types.OpKind, val types.Value) Ref {
	ref, c := r.appendLocked()
	c.opID, c.invoke, c.kind, c.role = opID, t, kind, client.Role
	if i, ok := narrow(client.Index); ok {
		c.client = i
	} else {
		c.flags |= wideClient
		r.sideLocked(ref).client = client.Index
	}
	r.setValueLocked(ref, c, val, false)
	return ref
}

// setValueLocked stores v as c's value. A value equal to the last one
// stored, tag and payload, takes that value's payload string, so
// readers of one value keep one copy of it; any other value's payload is
// stored as it is, or as a copy of its own when borrowed is set (a read's
// response, see the package doc). An empty payload has nothing to share
// and leaves the last value in place: a read is invoked with the zero
// value between a write and the reads that return it.
func (r *Recorder) setValueLocked(ref Ref, c *record, v types.Value, borrowed bool) {
	switch {
	case v.Data == "":
	case v.Tag == r.last.Tag && v.Data == r.last.Data:
		v.Data = r.last.Data
	default:
		if borrowed {
			v.Data = strings.Clone(v.Data)
		}
		r.last = v
	}
	c.ts, c.widRole, c.data = v.Tag.TS, v.Tag.WID.Role, v.Data
	if i, ok := narrow(v.Tag.WID.Index); ok {
		c.wid = i
		c.flags &^= wideWID
	} else {
		c.flags |= wideWID
		r.sideLocked(ref).wid = v.Tag.WID.Index
	}
}

// opLocked expands the record ref addresses back into an Op.
func (r *Recorder) opLocked(ref Ref, c *record) Op {
	op := Op{
		Client:   types.ProcID{Role: c.role, Index: int(c.client)},
		OpID:     c.opID,
		Kind:     c.kind,
		Invoke:   c.invoke,
		Response: c.response,
		Value: types.Value{
			Tag:  types.Tag{TS: c.ts, WID: types.ProcID{Role: c.widRole, Index: int(c.wid)}},
			Data: c.data,
		},
		Epoch: c.epoch,
	}
	if c.flags != 0 {
		w := r.side[ref]
		if c.flags&wideClient != 0 {
			op.Client.Index = w.client
		}
		if c.flags&wideWID != 0 {
			op.Value.Tag.WID.Index = w.wid
		}
		if c.flags&hasErr != 0 {
			op.Err = w.err
		}
	}
	return op
}

// respondLocked stamps the response event at t, hands the sink its
// snapshot and returns the payload stored as the op's value.
func (r *Recorder) respondLocked(ref Ref, t vclock.Time, val types.Value, err error) string {
	c := r.atLocked(ref)
	c.response = t
	if err != nil {
		c.flags |= hasErr
		r.sideLocked(ref).err = err
	} else {
		c.flags &^= hasErr
		r.setValueLocked(ref, c, val, c.kind == types.OpRead)
	}
	if r.sink != nil {
		r.sink(r.opLocked(ref, c))
	}
	return c.data
}

// Invoke records the invocation event of an operation and returns its Ref.
// For writes, val is the argument being written (its tag may still be
// unset; UpdateValue can fill it in later).
func (r *Recorder) Invoke(client types.ProcID, opID uint64, kind types.OpKind, val types.Value) Ref {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.invokeLocked(r.clock.Tick(), client, opID, kind, val)
}

// InvokeAt records an invocation at an explicit time (used by the scripted
// chain interpreter, which owns its own notion of time). The clock is
// advanced so later ticks stay unique.
func (r *Recorder) InvokeAt(t vclock.Time, client types.ProcID, opID uint64, kind types.OpKind, val types.Value) Ref {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.clock.AdvanceTo(t)
	return r.invokeLocked(t, client, opID, kind, val)
}

// Respond records the response event with its result value and returns
// the payload it stored. For a read that is the payload of an equal value
// stored before it or a copy of val.Data of its own, never a reply
// frame's bytes (see the package doc), so the caller returns it in place
// of val.Data.
func (r *Recorder) Respond(ref Ref, val types.Value, err error) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.respondLocked(ref, r.clock.Tick(), val, err)
}

// RespondAt records the response at an explicit time.
func (r *Recorder) RespondAt(t vclock.Time, ref Ref, val types.Value, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.clock.AdvanceTo(t)
	r.respondLocked(ref, t, val, err)
}

// RespondFailed records an operation that ended in an error (timeout,
// unreachable quorum, protocol violation). A failed write's effect is
// indeterminate — it may still have landed at the servers — so its
// recorded argument is refreshed to arg first: callers pass the
// operation's current Arg(), which for two-round writes carries the tag
// assigned after round 1, keeping reads of the (possibly landed) value
// matchable when the checker linearizes the failed write as optional.
// Every runtime's failure path must go through this helper so their
// recorded histories stay equivalent.
func (r *Recorder) RespondFailed(ref Ref, kind types.OpKind, arg types.Value, err error) {
	if kind == types.OpWrite {
		r.UpdateValue(ref, arg)
	}
	r.Respond(ref, types.Value{}, err)
}

// SetEpoch tags a still-pending operation with its audit epoch (the
// phase its weight ticket was borrowed from). Called by the transport
// right after Invoke, so the tag is in place before the sink snapshot
// fires at Respond.
func (r *Recorder) SetEpoch(ref Ref, epoch uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c := r.atLocked(ref); c.response == 0 {
		c.epoch = epoch
	}
}

// UpdateValue refreshes a still-pending operation's value — used for
// two-round writes whose tag is only assigned after their first round, so
// that reads of an in-flight write's value remain matchable.
func (r *Recorder) UpdateValue(ref Ref, val types.Value) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c := r.atLocked(ref); c.response == 0 {
		r.setValueLocked(ref, c, val, false)
	}
}

// History returns a snapshot of all recorded operations, in invocation
// order.
func (r *Recorder) History() History {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, c := range r.chunks {
		n += len(c)
	}
	h := History{Ops: make([]Op, 0, n)}
	for i, c := range r.chunks {
		for j := range c {
			h.Ops = append(h.Ops, r.opLocked(Ref{chunk: uint32(i), slot: uint32(j)}, &c[j]))
		}
	}
	return h
}

// History is an immutable snapshot of an execution.
type History struct {
	Ops []Op
}

// byInvoke orders ops by invocation time.
func byInvoke(a, b Op) int { return cmp.Compare(a.Invoke, b.Invoke) }

// Completed returns the successfully completed operations, sorted by
// invocation time.
func (h History) Completed() []Op {
	out := make([]Op, 0, len(h.Ops))
	for _, o := range h.Ops {
		if o.Done() && o.Err == nil {
			out = append(out, o)
		}
	}
	slices.SortFunc(out, byInvoke)
	return out
}

// Pending returns operations that never responded (e.g. blocked on an
// unreachable quorum).
func (h History) Pending() []Op {
	var out []Op
	for _, o := range h.Ops {
		if !o.Done() {
			out = append(out, o)
		}
	}
	return out
}

// Failed returns completed operations that reported an error.
func (h History) Failed() []Op {
	var out []Op
	for _, o := range h.Ops {
		if o.Done() && o.Err != nil {
			out = append(out, o)
		}
	}
	return out
}

// WellFormed verifies that the execution restricted to each client is
// sequential (Section 2.1): a client invokes a new operation only after the
// previous one responded.
func (h History) WellFormed() error {
	byClient := make(map[types.ProcID][]Op)
	for _, o := range h.Ops {
		byClient[o.Client] = append(byClient[o.Client], o)
	}
	for c, ops := range byClient {
		slices.SortFunc(ops, byInvoke)
		for i := 1; i < len(ops); i++ {
			prev := ops[i-1]
			if !prev.Done() || prev.Response > ops[i].Invoke {
				return fmt.Errorf("history: client %s overlaps %s and %s", c, prev.Key(), ops[i].Key())
			}
		}
	}
	return nil
}

// Writes returns the completed writes, sorted by invocation.
func (h History) Writes() []Op {
	var out []Op
	for _, o := range h.Completed() {
		if o.Kind == types.OpWrite {
			out = append(out, o)
		}
	}
	return out
}

// Reads returns the completed reads, sorted by invocation.
func (h History) Reads() []Op {
	var out []Op
	for _, o := range h.Completed() {
		if o.Kind == types.OpRead {
			out = append(out, o)
		}
	}
	return out
}

// String renders the history one operation per line.
func (h History) String() string {
	var b strings.Builder
	for _, o := range h.Ops {
		b.WriteString(o.String())
		b.WriteByte('\n')
	}
	return b.String()
}
