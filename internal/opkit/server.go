// Package opkit provides the building blocks the protocol packages compose:
// the two server state machines of the literature (max-value store and
// valuevector store) and the client-side round state machines (two-phase
// writes, read-with-write-back, and the fast read of Algorithm 1).
//
// Keeping these in one place makes each protocol package a thin, auditable
// composition and guarantees that, e.g., the W2R1 and W1R1 readers share the
// exact same admissibility machinery, as they do in the paper (the W2R1
// algorithm is derived from the W1R1 single-writer algorithm of Dutta et
// al.).
//
// # Who owns a value
//
// Values travel by reference and are frozen once published. The fast
// read's data is sorted slices: a VectorServer's reply IS its vector and a
// reader's request IS its valQueue. A two-round op's data is one value
// behind a pointer: a QueryAck's Val IS the replica's current value and an
// Update's Val IS the op's own tagged value. An in-process backend hands
// that very slice or pointer to the other side, a network one encodes it,
// neither copies. The rules that make this safe:
//
//   - Publish: only the owner of a `// frozen:` field (VectorServer.vec,
//     ReaderState.queue, StoreServer.cur, VectorServer.cur) assigns it, and
//     only with a slice or value it has just built and not yet shown to
//     anyone. Once a vector, an Updated set, a valQueue or a value has been
//     returned from Handle, Begin or Next, no code writes through it again;
//     a change builds a new slice (and new Updated slices for just the
//     entries it touches) or a new value and assigns the field. A replica
//     that adopts an Update's value allocates a fresh one, so every QueryAck
//     already sent keeps the value it was sent with; new replicas share one
//     frozen initial value. An op points its Update at a field of its own
//     (QueryThenUpdateWrite.val, ReadWriteBack.maxV, DirectWrite.val) that
//     it never writes after the round is returned. fastreglint's frozenslice
//     analyzer holds the annotated fields to this.
//   - Receive: whoever is handed a FastRead, a FastReadAck, a QueryAck or
//     an Update reads it and nothing else. Code that wants a changed vector
//     or value (byzantine.LyingServer, byzantine.FilterUnvouched) builds its
//     own. What came over a wire is checked, not trusted: SelectAdmissible
//     verifies that each vector and updated set is strictly ascending and
//     sorts a private copy when it is not, and a QueryAck or Update whose
//     Val is nil is a bad reply to an op and dropped by a replica.
//   - Keep: proto.Decode cuts every envelope's Key and every payload of a
//     FastRead or FastReadAck from one string per frame (a batch frame's
//     envelopes share one), so any of them keeps the whole frame alive.
//     Whoever stores a key or a value beyond the message it came in takes a
//     private copy (strings.Clone) at the moment it first stores it: a
//     replica registering a key (keyreg.ServerShard.GetLocked), a replica
//     adding a valQueue's value to its vector, a reader adding a reply's
//     value to its valQueue. A QueryAck's or an Update's Val points into
//     one value arena per frame, so a kept pointer keeps every value of the
//     frame alive: whoever keeps such a value copies *Val, never the
//     pointer. Its Data owns its bytes, as a LogAck's value's does, so the
//     copy is stored as it is.
//   - Return: a read returns the valQueue's copy of the value it selected,
//     not the copy in the reply the search happened to find it in. Every
//     read of one value by one reader, and every history that records them,
//     then share one payload, and none of them pins a reply.
package opkit

import (
	"slices"
	"strings"

	"fastreg/internal/proto"
	"fastreg/internal/types"
)

// initialValue is the value every new replica starts from, shared by all
// of them: it is frozen like every value a `// frozen:` pointer field
// holds.
var initialValue = types.InitialValue()

// adopt returns a fresh copy of v for a `// frozen:` pointer field to
// publish: the field's old value stays as the QueryAcks already sent saw
// it, and the new one pins neither the message v came in nor its frame.
func adopt(v types.Value) *types.Value { return &v }

// StoreServer is the classic ABD/LS97 server: it stores the maximal value
// received so far, answers Query with it, and monotonically merges Update.
type StoreServer struct {
	id types.ProcID
	// frozen: every QueryAck points at it until the next adopt.
	cur *types.Value
}

// NewStoreServer creates a StoreServer holding the initial value (0, ⊥).
func NewStoreServer(id types.ProcID) *StoreServer {
	return &StoreServer{id: id, cur: &initialValue}
}

// ID implements register.ServerLogic.
func (s *StoreServer) ID() types.ProcID { return s.id }

// CurrentValue implements register.ServerLogic.
func (s *StoreServer) CurrentValue() types.Value { return *s.cur }

// Handle implements register.ServerLogic. An Update without a value is
// dropped (nil reply), like any other malformed request.
func (s *StoreServer) Handle(_ types.ProcID, m proto.Message) proto.Message {
	switch msg := m.(type) {
	case proto.Query:
		return proto.QueryAck{Val: s.cur}
	case proto.Update:
		if msg.Val == nil {
			return nil
		}
		if s.cur.Less(*msg.Val) {
			s.cur = adopt(*msg.Val)
		}
		return proto.UpdateAck{}
	default:
		// Unknown request: a real server would drop it; replying nil models
		// that (the client's quorum logic tolerates it like a slow server).
		return nil
	}
}

// VectorServer is the Algorithm 2 server. Besides the maximal value vali it
// keeps a valuevector: for every value ever received, the set of clients
// known to have updated (proposed or relayed) it. FastRead requests both
// merge the reader's valQueue and return the whole vector.
type VectorServer struct {
	id types.ProcID
	// frozen: every QueryAck points at it until the next adopt.
	cur *types.Value
	// frozen: replies are this slice. Strictly ascending by Value.Compare,
	// every Updated set ascending; a change builds a new vector, and new
	// Updated slices for the entries it touches.
	vec []proto.VectorEntry
}

// NewVectorServer creates a VectorServer initialized per Algorithm 2 lines
// 3–6: vali = (0,⊥) with an empty updated set.
func NewVectorServer(id types.ProcID) *VectorServer {
	return &VectorServer{
		id:  id,
		cur: &initialValue,
		vec: []proto.VectorEntry{{Val: types.InitialValue()}},
	}
}

// ID implements register.ServerLogic.
func (s *VectorServer) ID() types.ProcID { return s.id }

// CurrentValue implements register.ServerLogic.
func (s *VectorServer) CurrentValue() types.Value { return *s.cur }

// findEntry locates v in an ascending vector: its index, or the index it
// would be inserted at.
func findEntry(vec []proto.VectorEntry, v types.Value) (int, bool) {
	return slices.BinarySearchFunc(vec, v, func(e proto.VectorEntry, v types.Value) int { return e.Val.Compare(v) })
}

// inserted returns a new slice, s with v at index i, and leaves s alone.
func inserted[T any](s []T, i int, v T) []T {
	out := make([]T, len(s)+1)
	copy(out, s[:i])
	out[i] = v
	copy(out[i+1:], s[i:])
	return out
}

// withProc returns a new ascending set: set and c, which set lacks.
func withProc(set []types.ProcID, c types.ProcID) []types.ProcID {
	i, _ := slices.BinarySearchFunc(set, c, types.ProcID.Compare)
	return inserted(set, i, c)
}

// update is Algorithm 2's update(val, c) procedure: record that client c
// holds val, and raise vali if val is newer. val owns its payload (it comes
// from an Update), so the vector stores it as it is.
func (s *VectorServer) update(val types.Value, c types.ProcID) {
	i, ok := findEntry(s.vec, val)
	switch {
	case !ok:
		s.vec = inserted(s.vec, i, proto.VectorEntry{Val: val, Updated: []types.ProcID{c}})
	case !s.vec[i].HasUpdated(c):
		vec := slices.Clone(s.vec)
		vec[i].Updated = withProc(vec[i].Updated, c)
		s.vec = vec
	}
	if s.cur.Less(val) {
		s.cur = adopt(val)
	}
}

// fastRead is update(val, c) for every val in the reader's valQueue, after
// which c joins the updated set of every entry: the reader witnesses every
// value in the reply. Lemma 8's proof relies on this: "every server which
// replies to r2 in rd2 adds r2 to its updated set before replying". (With a
// single stored value, as in Dutta et al., this is the original algorithm's
// behaviour; the valuevector generalizes it per value.)
//
// One pass finds what that would change. Usually nothing — the reader is on
// every entry and its valQueue holds nothing new — and the reply is the
// current vector. Otherwise one new vector is built. The valQueue may have
// been cut from a frame (proto.Decode), so an entry stores a private copy
// of a new value's payload, and vali takes the entry's copy.
func (s *VectorServer) fastRead(queue []types.Value, c types.ProcID) []proto.VectorEntry {
	old := s.vec
	var buf [8]types.Value
	fresh, stale := buf[:0], false
	for _, v := range queue {
		if _, ok := findEntry(old, v); !ok && !slices.Contains(fresh, v) {
			fresh = append(fresh, v)
		}
	}
	for i := range old {
		stale = stale || !old[i].HasUpdated(c)
	}
	if len(fresh) > 0 || stale {
		vec := make([]proto.VectorEntry, len(old), len(old)+len(fresh))
		copy(vec, old)
		for i := range vec {
			if !vec[i].HasUpdated(c) {
				vec[i].Updated = withProc(vec[i].Updated, c)
			}
		}
		if len(fresh) > 0 {
			only := []types.ProcID{c} // never written again, so the new entries share it
			for _, v := range fresh {
				v.Data = strings.Clone(v.Data)
				vec = append(vec, proto.VectorEntry{Val: v, Updated: only})
			}
			slices.SortFunc(vec, func(a, b proto.VectorEntry) int { return a.Val.Compare(b.Val) })
		}
		s.vec = vec
		top := *s.cur
		for _, v := range queue {
			if top.Less(v) {
				top = v
			}
		}
		if s.cur.Less(top) {
			i, _ := findEntry(vec, top)
			s.cur = adopt(vec[i].Val)
		}
	}
	return s.vec[:len(s.vec):len(s.vec)]
}

// Handle implements register.ServerLogic.
//
//   - Query       → QueryAck{vali}           (writer's first round)
//   - Update      → update(val, c); WRITEACK (writer's second round)
//   - FastRead    → update every valQueue entry for the reader, then reply
//     with the full valuevector (READACK)
//
// An Update without a value is dropped (nil reply).
func (s *VectorServer) Handle(from types.ProcID, m proto.Message) proto.Message {
	switch msg := m.(type) {
	case proto.Query:
		return proto.QueryAck{Val: s.cur}
	case proto.Update:
		if msg.Val == nil {
			return nil
		}
		s.update(*msg.Val, from)
		return proto.UpdateAck{}
	case proto.FastRead:
		return proto.FastReadAck{Vector: s.fastRead(msg.ValQueue, from)}
	default:
		return nil
	}
}

// VectorSnapshot deep-copies the vector for tests and the crucial-info
// analysis, which may keep or change what they get.
func (s *VectorServer) VectorSnapshot() []proto.VectorEntry {
	out := make([]proto.VectorEntry, len(s.vec))
	for i, e := range s.vec {
		out[i] = e.Clone()
	}
	return out
}
