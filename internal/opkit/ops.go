package opkit

import (
	"fmt"
	"slices"
	"strings"

	"fastreg/internal/proto"
	"fastreg/internal/quorum"
	"fastreg/internal/register"
	"fastreg/internal/types"
)

// QueryWriter is a writer whose writes are QueryThenUpdateWrites. ts is
// its largest timestamp on the register so far, which its ops share.
type QueryWriter struct {
	id   types.ProcID
	need int
	ts   int64
}

// NewQueryWriter builds the two-round writer id of shape cfg.
func NewQueryWriter(id types.ProcID, cfg quorum.Config) *QueryWriter {
	return &QueryWriter{id: id, need: cfg.ReplyQuorum()}
}

// ID implements register.Writer.
func (w *QueryWriter) ID() types.ProcID { return w.id }

// WriteOp implements register.Writer.
func (w *QueryWriter) WriteOp(data string) register.Operation {
	return NewQueryThenUpdateWrite(w.id, data, w.need, &w.ts)
}

// QueryThenUpdateWrite is the two-round multi-writer write of LS97 and of
// Algorithm 1 (lines 5–13): round 1 queries all servers for the maximal
// timestamp (TagQuery: the replies carry tags, not values); round 2
// updates all servers with (maxTS+1, wid).
//
// The timestamp is also above every one this writer used before (*last):
// an abandoned write whose Update reached fewer than a quorum may be
// missing from the next write's query quorum, and without the writer's
// own memory both would get the same tag for different values.
type QueryThenUpdateWrite struct {
	client types.ProcID
	data   string
	need   int
	last   *int64 // the writer's largest timestamp so far, shared by its ops
	phase  int
	val    types.Value    // the Update points here: never written after round 2 is returned
	next   register.Round // what Next returns a pointer to
}

// NewQueryThenUpdateWrite builds the write operation for the given writer.
// need is the per-round reply quorum (S − t). last is the writer's
// per-register memory of the largest timestamp it has used, which Next
// reads and raises; the writer's ops are sequential, so they share it
// without a lock.
func NewQueryThenUpdateWrite(client types.ProcID, data string, need int, last *int64) *QueryThenUpdateWrite {
	return &QueryThenUpdateWrite{client: client, data: data, need: need, last: last}
}

// Client implements register.Operation.
func (w *QueryThenUpdateWrite) Client() types.ProcID { return w.client }

// Kind implements register.Operation.
func (w *QueryThenUpdateWrite) Kind() types.OpKind { return types.OpWrite }

// Arg implements register.Operation. The tag is only known after round 1;
// until then the argument is reported untagged. History recorders re-query
// Arg for pending writes so the checker can match reads of an in-flight
// write's value.
func (w *QueryThenUpdateWrite) Arg() types.Value {
	if w.val != (types.Value{}) {
		return w.val
	}
	return types.Value{Data: w.data}
}

// Begin implements register.Operation.
func (w *QueryThenUpdateWrite) Begin() register.Round {
	w.phase = 1
	return register.Round{Payload: proto.TagQuery{}, Need: w.need}
}

// Next implements register.Operation.
func (w *QueryThenUpdateWrite) Next(replies []register.Reply) (*register.Round, types.Value, bool, error) {
	switch w.phase {
	case 1:
		maxTS := *w.last
		for _, r := range replies {
			ack, ok := r.Msg.(proto.TagAck)
			if !ok || ack.Tag == nil {
				return nil, types.Value{}, false, register.BadReply("write query", r.Msg)
			}
			maxTS = max(maxTS, ack.Tag.TS)
		}
		*w.last = maxTS + 1
		w.val = types.Value{Tag: types.Tag{TS: maxTS + 1, WID: w.client}, Data: w.data}
		w.phase = 2
		w.next = register.Round{Payload: proto.Update{Val: &w.val}, Need: w.need}
		return &w.next, types.Value{}, false, nil
	case 2:
		for _, r := range replies {
			if _, ok := r.Msg.(proto.UpdateAck); !ok {
				return nil, types.Value{}, false, register.BadReply("write update", r.Msg)
			}
		}
		return nil, w.val, true, nil
	default:
		return nil, types.Value{}, false, fmt.Errorf("%w: write in phase %d", register.ErrProtocol, w.phase)
	}
}

// CounterWriter is a writer whose writes are DirectWrites tagged from a
// counter of its own. That is sound only while it is the register's one
// writer, the sole source of timestamps: counters of different writers are
// not coordinated, and a one-round write cannot coordinate them (the
// paper's Theorem 1).
type CounterWriter struct {
	id   types.ProcID
	need int
	ts   int64
}

// NewCounterWriter builds the one-round writer id of shape cfg.
func NewCounterWriter(id types.ProcID, cfg quorum.Config) *CounterWriter {
	return &CounterWriter{id: id, need: cfg.ReplyQuorum()}
}

// ID implements register.Writer.
func (w *CounterWriter) ID() types.ProcID { return w.id }

// WriteOp implements register.Writer.
func (w *CounterWriter) WriteOp(data string) register.Operation {
	w.ts++
	return NewDirectWrite(w.id, types.Value{Tag: types.Tag{TS: w.ts, WID: w.id}, Data: data}, w.need)
}

// DirectWrite is a one-round ("fast") write: the value, tag included, is
// fixed before the round starts. It is the write of ABD in the single-writer
// case — and of the naive fast-write protocols whose non-atomicity the
// impossibility machinery exhibits in the multi-writer case.
type DirectWrite struct {
	client types.ProcID
	val    types.Value // the Update points here: never written
	need   int
}

// NewDirectWrite builds the one-round write.
func NewDirectWrite(client types.ProcID, val types.Value, need int) *DirectWrite {
	return &DirectWrite{client: client, val: val, need: need}
}

// Client implements register.Operation.
func (w *DirectWrite) Client() types.ProcID { return w.client }

// Kind implements register.Operation.
func (w *DirectWrite) Kind() types.OpKind { return types.OpWrite }

// Arg implements register.Operation.
func (w *DirectWrite) Arg() types.Value { return w.val }

// Begin implements register.Operation.
func (w *DirectWrite) Begin() register.Round {
	return register.Round{Payload: proto.Update{Val: &w.val}, Need: w.need}
}

// Next implements register.Operation.
func (w *DirectWrite) Next(replies []register.Reply) (*register.Round, types.Value, bool, error) {
	for _, r := range replies {
		if _, ok := r.Msg.(proto.UpdateAck); !ok {
			return nil, types.Value{}, false, register.BadReply("fast write", r.Msg)
		}
	}
	return nil, w.val, true, nil
}

// WriteBackReader is a reader whose reads are ReadWriteBacks, or with the
// write-back ablated ReadNoWriteBacks.
type WriteBackReader struct {
	id        types.ProcID
	need      int
	writeBack bool
}

// NewWriteBackReader builds the reader id of shape cfg; writeBack false is
// the ablation.
func NewWriteBackReader(id types.ProcID, cfg quorum.Config, writeBack bool) *WriteBackReader {
	return &WriteBackReader{id: id, need: cfg.ReplyQuorum(), writeBack: writeBack}
}

// ID implements register.Reader.
func (r *WriteBackReader) ID() types.ProcID { return r.id }

// ReadOp implements register.Reader.
func (r *WriteBackReader) ReadOp() register.Operation {
	if r.writeBack {
		return NewReadWriteBack(r.id, r.need)
	}
	return NewReadNoWriteBack(r.id, r.need)
}

// ReadWriteBack is the two-round read of ABD/LS97: round 1 queries all
// servers and picks the maximal value; round 2 writes that value back so
// that later reads cannot observe an older one (the fix for the new-old
// inversion).
type ReadWriteBack struct {
	client types.ProcID
	need   int
	phase  int
	maxV   types.Value    // the write-back points here: never written after round 2 is returned
	next   register.Round // what Next returns a pointer to
}

// NewReadWriteBack builds the two-round read.
func NewReadWriteBack(client types.ProcID, need int) *ReadWriteBack {
	return &ReadWriteBack{client: client, need: need}
}

// Client implements register.Operation.
func (r *ReadWriteBack) Client() types.ProcID { return r.client }

// Kind implements register.Operation.
func (r *ReadWriteBack) Kind() types.OpKind { return types.OpRead }

// Arg implements register.Operation.
func (r *ReadWriteBack) Arg() types.Value { return types.Value{} }

// Begin implements register.Operation.
func (r *ReadWriteBack) Begin() register.Round {
	r.phase = 1
	return register.Round{Payload: proto.Query{}, Need: r.need}
}

// Next implements register.Operation.
func (r *ReadWriteBack) Next(replies []register.Reply) (*register.Round, types.Value, bool, error) {
	switch r.phase {
	case 1:
		r.maxV = types.InitialValue()
		for _, rep := range replies {
			ack, ok := rep.Msg.(proto.QueryAck)
			if !ok || ack.Val == nil {
				return nil, types.Value{}, false, register.BadReply("read query", rep.Msg)
			}
			if r.maxV.Less(*ack.Val) {
				r.maxV = *ack.Val
			}
		}
		r.phase = 2
		r.next = register.Round{Payload: proto.Update{Val: &r.maxV}, Need: r.need}
		return &r.next, types.Value{}, false, nil
	case 2:
		for _, rep := range replies {
			if _, ok := rep.Msg.(proto.UpdateAck); !ok {
				return nil, types.Value{}, false, register.BadReply("read write-back", rep.Msg)
			}
		}
		return nil, r.maxV, true, nil
	default:
		return nil, types.Value{}, false, fmt.Errorf("%w: read in phase %d", register.ErrProtocol, r.phase)
	}
}

// ReadNoWriteBack is the ablation variant of ReadWriteBack with the second
// round removed: a one-round "read max" that is NOT atomic (it exhibits
// new-old inversions). It exists so the write-back ablation of cmd/repro
// can measure what the write-back costs (EXPERIMENTS.md).
type ReadNoWriteBack struct {
	client types.ProcID
	need   int
}

// NewReadNoWriteBack builds the one-round non-atomic read.
func NewReadNoWriteBack(client types.ProcID, need int) *ReadNoWriteBack {
	return &ReadNoWriteBack{client: client, need: need}
}

// Client implements register.Operation.
func (r *ReadNoWriteBack) Client() types.ProcID { return r.client }

// Kind implements register.Operation.
func (r *ReadNoWriteBack) Kind() types.OpKind { return types.OpRead }

// Arg implements register.Operation.
func (r *ReadNoWriteBack) Arg() types.Value { return types.Value{} }

// Begin implements register.Operation.
func (r *ReadNoWriteBack) Begin() register.Round {
	return register.Round{Payload: proto.Query{}, Need: r.need}
}

// Next implements register.Operation.
func (r *ReadNoWriteBack) Next(replies []register.Reply) (*register.Round, types.Value, bool, error) {
	maxV := types.InitialValue()
	for _, rep := range replies {
		ack, ok := rep.Msg.(proto.QueryAck)
		if !ok || ack.Val == nil {
			return nil, types.Value{}, false, register.BadReply("read query", rep.Msg)
		}
		if maxV.Less(*ack.Val) {
			maxV = *ack.Val
		}
	}
	return nil, maxV, true, nil
}

// ReaderState is the persistent local state of an Algorithm 1 reader: its
// valQueue, initialized to {(0,⊥)} (line 17).
type ReaderState struct {
	// frozen: requests are this slice. Strictly ascending by Value.Compare;
	// a merge that adds a value builds a new queue.
	queue []types.Value
	// req is &FastRead{queue}, built by setQueue whenever queue changes:
	// every read between two changes sends this one message.
	req *proto.FastRead
}

// NewReaderState initializes the valQueue with the initial value.
func NewReaderState() *ReaderState {
	s := &ReaderState{}
	s.setQueue([]types.Value{types.InitialValue()})
	return s
}

// setQueue publishes queue as the valQueue, and the request that carries it.
func (s *ReaderState) setQueue(queue []types.Value) {
	s.queue = queue
	s.req = &proto.FastRead{ValQueue: s.Queue()}
}

// Queue returns the valQueue, ascending. The slice is shared with the
// requests in flight: read it, do not write through it.
func (s *ReaderState) Queue() []types.Value { return s.queue[:len(s.queue):len(s.queue)] }

func (s *ReaderState) find(v types.Value) (int, bool) {
	return slices.BinarySearchFunc(s.queue, v, types.Value.Compare)
}

// Merge adds values to the valQueue (line 22).
func (s *ReaderState) Merge(vs ...types.Value) {
	var buf [8]types.Value
	fresh := buf[:0]
	for _, v := range vs {
		fresh = s.missing(fresh, v)
	}
	s.add(fresh, types.Tag{})
}

// missing appends v to fresh unless the valQueue or fresh holds it.
func (s *ReaderState) missing(fresh []types.Value, v types.Value) []types.Value {
	if _, ok := s.find(v); ok || slices.Contains(fresh, v) {
		return fresh
	}
	return append(fresh, v)
}

// add publishes a new valQueue that also holds the fresh values and none
// tagged below floor. The fresh values may have been cut from a reply's
// frame (proto.Decode), so the queue stores a private copy of each
// payload. With nothing fresh the queue is its old self less its dead
// prefix, not a copy.
func (s *ReaderState) add(fresh []types.Value, floor types.Tag) {
	old := s.queue
	for len(old) > 0 && old[0].Tag.Less(floor) {
		old = old[1:]
	}
	if len(fresh) == 0 {
		if len(old) < len(s.queue) {
			s.setQueue(old)
		}
		return
	}
	queue := make([]types.Value, 0, len(old)+len(fresh))
	queue = append(queue, old...)
	for _, v := range fresh {
		if !v.Tag.Less(floor) {
			v.Data = strings.Clone(v.Data)
			queue = append(queue, v)
		}
	}
	slices.SortFunc(queue, types.Value.Compare)
	s.setQueue(queue)
}

// FastReader is a reader whose reads are FastReadOps. Its valQueue
// persists across its operations (Algorithm 1, lines 16–17).
type FastReader struct {
	id    types.ProcID
	need  int
	state *ReaderState
	cfg   AdmissibleConfig
}

// NewFastReader builds the one-round reader id of shape cfg.
func NewFastReader(id types.ProcID, cfg quorum.Config) *FastReader {
	return &FastReader{
		id:    id,
		need:  cfg.ReplyQuorum(),
		state: NewReaderState(),
		cfg:   AdmissibleConfig{S: cfg.S, T: cfg.T, MaxDegree: cfg.MaxDegree()},
	}
}

// ID implements register.Reader.
func (r *FastReader) ID() types.ProcID { return r.id }

// ReadOp implements register.Reader.
func (r *FastReader) ReadOp() register.Operation {
	return NewFastReadOp(r.id, r.state, r.cfg, r.need)
}

// FastReadOp is the one-round read of Algorithm 1 (lines 18–31), shared by
// the W2R1 protocol (the paper's contribution) and the W1R1 protocol it is
// derived from. One round both disseminates the reader's valQueue and
// collects every server's valuevector; the return value is the largest
// admissible value.
type FastReadOp struct {
	client types.ProcID
	state  *ReaderState
	cfg    AdmissibleConfig
	need   int
}

// NewFastReadOp builds the fast read for the given reader.
func NewFastReadOp(client types.ProcID, state *ReaderState, cfg AdmissibleConfig, need int) *FastReadOp {
	return &FastReadOp{client: client, state: state, cfg: cfg, need: need}
}

// Client implements register.Operation.
func (r *FastReadOp) Client() types.ProcID { return r.client }

// Kind implements register.Operation.
func (r *FastReadOp) Kind() types.OpKind { return types.OpRead }

// Arg implements register.Operation.
func (r *FastReadOp) Arg() types.Value { return types.Value{} }

// Begin implements register.Operation. The request carries the valQueue
// itself, not a copy, and is the one message every read sends until the
// valQueue changes.
func (r *FastReadOp) Begin() register.Round {
	return register.Round{Payload: r.state.req, Need: r.need}
}

// Next implements register.Operation. The value it returns is the
// valQueue's copy of the chosen one, which the reader keeps anyway, so
// every read of a value by this reader returns one payload that pins no
// reply (the package doc's Return rule).
//
// The merge also drops the values tagged below the smallest floor among
// the replies, which no read can return any more (see "Dead values"). The
// smallest, so that one honest replica in the quorum bounds what a lying
// one can make it drop; and never above the value this read returns, so
// the valQueue keeps it and everything above it, its largest value
// included.
func (r *FastReadOp) Next(replies []register.Reply) (*register.Round, types.Value, bool, error) {
	// Working memory on the stack: a handful of replies allocates nothing.
	var (
		ackBuf   [8]proto.FastReadAck
		freshBuf [8]types.Value
	)
	acks, fresh := ackBuf[:0], freshBuf[:0]
	for _, rep := range replies {
		ack, ok := rep.Msg.(proto.FastReadAck)
		if !ok {
			return nil, types.Value{}, false, register.BadReply("fast read", rep.Msg)
		}
		acks = append(acks, ack)
	}
	// Line 22: merge every received value into the valQueue.
	for _, ack := range acks {
		for i := range ack.Vector {
			fresh = r.state.missing(fresh, ack.Vector[i].Val)
		}
	}
	val, err := SelectAdmissible(acks, r.cfg)
	var floor types.Tag
	if err == nil {
		floor = val.Tag
		for _, ack := range acks {
			if ack.Floor.Less(floor) {
				floor = ack.Floor
			}
		}
	}
	r.state.add(fresh, floor)
	if err != nil {
		return nil, types.Value{}, false, err
	}
	i, _ := r.state.find(val)
	return nil, r.state.queue[i], true, nil
}
