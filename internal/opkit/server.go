// Package opkit provides the building blocks every protocol of Table 1 is
// made of (internal/protocols): the two server state machines of the
// literature (max-value store and valuevector store), the client-side
// round state machines (the one-round and two-round writes, the read with
// write-back and the fast read of Algorithm 1), and one client type per
// kind of operation that issues them (CounterWriter, QueryWriter,
// WriteBackReader, FastReader).
//
// Keeping these in one place makes each protocol a row of parts and
// guarantees that, e.g., the W2R1 and W1R1 readers share the exact same
// admissibility machinery, as they do in the paper (the W2R1 algorithm is
// derived from the W1R1 single-writer algorithm of Dutta et al.).
//
// # Who owns a value
//
// Values travel by reference and are frozen once published. The fast
// read's data is sorted slices: a VectorServer's reply IS its vector and a
// reader's request, a *proto.FastRead, holds its valQueue itself. A
// two-round op's data is one value behind a pointer: a QueryAck's Val IS
// the replica's current value, a TagAck's Tag IS that value's tag, and an
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
//     that takes a new current value publishes what adopt returns, a fresh
//     value that owns its payload, so every QueryAck and TagAck already
//     sent keeps the value it was sent with; new replicas share one frozen
//     initial value. An op points its Update at a field of its own
//     (QueryThenUpdateWrite.val, ReadWriteBack.maxV, DirectWrite.val) that
//     it never writes after the round is returned. fastreglint's frozenslice
//     analyzer holds the annotated fields to this. A reply and a request
//     are built once per change, not once per message: a VectorServer boxes
//     FastReadAck{vec, floor} whenever either changes (publish) and answers
//     every FastRead until the next change with that one message, and a
//     ReaderState allocates &FastRead{queue} whenever its valQueue changes
//     and sends that one pointer until the next (a FastRead travels by
//     pointer; replicas drop a FastRead value). A rebuild that adds a
//     reader to several entries whose old updated sets are equal gives
//     them one new set: sets are frozen, so sharing one is as safe as
//     sharing a vector.
//   - Receive: whoever is handed a FastRead, a FastReadAck, a QueryAck, a
//     TagAck or an Update reads it and nothing else, and keeps no
//     *FastRead beyond the message. Code that wants a changed vector or
//     value (byzantine.LyingServer, byzantine.FilterUnvouched) builds its
//     own. What came over a wire is checked, not trusted: SelectAdmissible
//     verifies that each vector and updated set is strictly ascending and
//     sorts a private copy when it is not, a QueryAck or TagAck whose Val
//     or Tag is nil is a bad reply to an op, and an Update whose Val is nil
//     is dropped by a replica.
//   - Keep: proto.Decode cuts every envelope's Key and every payload of a
//     FastRead, a FastReadAck, a QueryAck, a LogAck or an Update from one
//     text per frame (a batch frame's envelopes share one), which shares
//     one block, one allocation, with the frame's arenas below, so any of
//     them keeps the whole frame alive. Whoever stores a key or a value
//     beyond the message it came in takes a private copy at the moment it
//     first stores it: a replica registering a key clones it
//     (keyreg.ServerShard.GetLocked), a reader adding a reply's value to
//     its valQueue and the history recorder storing the value a read
//     returns clone its Data, and a replica keeps a value, an Update's or
//     a valQueue's, only through adopt, the one owning copy, whose single
//     allocation holds the Value and its payload's bytes; its vector entry
//     and its current value share that one copy. A QueryAck's or an
//     Update's Val points into one value arena per frame, so a kept
//     pointer keeps the frame's block alive: whoever keeps such a value
//     copies *Val, never the pointer. A TagAck's Tag points into the same
//     arena, and a writer keeps only the timestamp it reads from it. A
//     FastRead's valQueue is carved from that same value arena, its
//     *FastRead header sits in the frame's block beside it, and a
//     FastReadAck's vector and its updated sets are carved from one arena
//     each per frame, so keeping one request, valQueue, vector or set
//     keeps the frame's block alive: a replica and a reader copy the
//     values they keep out of it, and keep no request or slice of it.
//   - Return: an op may respond with a value cut from a reply (a
//     two-round read with a QueryAck's, a full-info read with a LogAck's),
//     which pins the reply's frame only while the op lives. The client
//     returns the register's
//     history recorder's copy instead (internal/history, Storage): the
//     recorder stores a read equal in tag and payload to the last value
//     it stored with that one's payload and a copy of its own of any
//     other, so no read pins a reply and a history keeps one payload per
//     value, not one per read. A fast read responds with the valQueue's
//     copy of the value it selected, which the reader keeps anyway, not
//     the copy in the reply the search happened to find it in.
//
// # Dead values
//
// Algorithm 2's vector keeps every value it ever received, and a reader's
// valQueue every value it ever saw. A VectorServer built for R readers
// drops the values no read can return any more. For each reader r_i it
// records F_i, the largest tag r_i has put in a valQueue this replica
// received. Its floor is min_i F_i, and a value tagged below the floor is
// dead: its entry leaves the vector, and an Update or a valQueue that
// brings it again does not store it. Every FastReadAck carries the floor,
// and a reader drops from its valQueue the values tagged below the smallest
// floor among its replies.
//
// Lemma (dead values). On every schedule, every operation returns what it
// returns on Algorithm 2's replicas, with the same response time.
//
// Proof sketch.
//  1. A read returns at least the largest value of the valQueue it sent
//     (Lemma 3: every replying server recorded the reader on that value,
//     so it is admissible with degree 1).
//  2. A reader's valQueue gains every value it sees and loses only dead
//     ones, never its largest, so its largest value never shrinks; and a
//     reader's reads are sequential. Every read of r_i still in progress or
//     to come therefore returns at least F_i at any replica, and no read
//     returns a value below a replica's floor.
//  3. The floor only rises, so a value at or above it was never dead, and
//     its entry has evolved exactly as it would have on Algorithm 2. Whether
//     a value is admissible depends on that value's own entries alone. By
//     (1) and (2) a read's selection stops at or above every floor in its
//     quorum, so it tries the same values with the same entries, and stops
//     at the same one.
//  4. A reader drops only values below some replica's floor, which by (2)
//     no read returns; so the valQueues it sends differ only in dead values,
//     which change only dead entries.
//
// The sketch needs readers r_1..r_R that keep their valQueue. Two clients
// break that, and the replica makes sure their reads still end, not that
// they match: a reader whose state was evicted (fastreg's WithEvictionTTL)
// comes back with valQueue {(0,⊥)}, below its F_i, and a client outside
// r_1..r_R has no F_i at all. A replica always stores a request's largest
// value and replies with it, dead or not, so Lemma 3's witness is there;
// and the first FastRead from outside r_1..r_R freezes the key's floor for
// good. TestPruningMatchesAlgorithm2 checks the lemma against Algorithm 2's
// replicas on seeded simulator executions, and a mutant floor (the maximum
// over the readers) against it.
package opkit

import (
	"slices"
	"strings"
	"unsafe"

	"fastreg/internal/proto"
	"fastreg/internal/types"
)

// initialValue is the value every new replica starts from, shared by all
// of them: it is frozen like every value a `// frozen:` pointer field
// holds.
var initialValue = types.InitialValue()

// adopt returns a fresh copy of v, payload included, for a `// frozen:`
// pointer field or a vector entry to keep: the field's old value stays as
// the QueryAcks already sent saw it, and the new one pins neither the
// message v came in nor its frame (an Update's Data is cut from its
// frame's text). The copy is one allocation: the Value struct and its
// payload's bytes share one owned box sized to a Go size class, and only
// an empty payload (the struct alone) or one longer than the largest box
// (the struct and a strings.Clone) is laid out otherwise.
func adopt(v types.Value) *types.Value {
	switch n := len(v.Data); {
	case n == 0:
		// the struct alone
	case n <= 8:
		return box[[8]byte](v)
	case n <= 24:
		return box[[24]byte](v)
	case n <= 40:
		return box[[40]byte](v)
	case n <= 88:
		return box[[88]byte](v)
	case n <= 216:
		return box[[216]byte](v)
	case n <= 280:
		return box[[280]byte](v)
	case n <= 472:
		return box[[472]byte](v)
	case n <= 984:
		return box[[984]byte](v)
	default:
		v.Data = strings.Clone(v.Data)
	}
	c := v // a local, so that only this path moves a Value to the heap
	return &c
}

// owned is a value and the bytes of its payload in one allocation: v.Data
// is a string over b. With a 40-byte Value, each B adopt uses makes the
// box 48, 64, 80, 128, 256, 320, 512 or 1024 bytes, each a size class of
// Go's allocator, which therefore rounds no box up; a payload shorter than
// its box leaves the rest unused. A box on the 288-byte class would hold
// at most 248 payload bytes, so a 256-byte payload, which with its struct
// needs 296, takes the 320-byte box: no one-allocation box holds it in
// less than the 304 bytes of a 256-byte string and a 48-byte struct.
type owned[B any] struct {
	v types.Value
	b B
}

// box copies v into a new owned[B], whose B holds at least len(v.Data)
// bytes, and returns its value. b is written once, here, before the string
// over it exists, and never again, so the string is immutable as Go
// requires.
func box[B any](v types.Value) *types.Value {
	o := new(owned[B])
	b := unsafe.Slice((*byte)(unsafe.Pointer(&o.b)), len(v.Data))
	copy(b, v.Data)
	o.v = types.Value{Tag: v.Tag, Data: unsafe.String(&b[0], len(b))}
	return &o.v
}

// StoreServer is the classic ABD/LS97 server: it stores the maximal value
// received so far, answers Query with it and TagQuery with its tag, and
// monotonically merges Update.
type StoreServer struct {
	id types.ProcID
	// frozen: every QueryAck and TagAck points at it until the next adopt.
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
	case proto.TagQuery:
		return proto.TagAck{Tag: &s.cur.Tag}
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
// keeps a valuevector: for every live value received, the set of clients
// known to have updated (proposed or relayed) it. FastRead requests both
// merge the reader's valQueue and return the vector. A value tagged
// below the replica's floor is dead (see "Dead values" in the package doc):
// its entry leaves the vector, and an Update or a valQueue that brings it
// again does not store it.
type VectorServer struct {
	id types.ProcID
	// frozen: every QueryAck and TagAck points at it until the next adopt.
	cur *types.Value
	// frozen: replies are this slice. Strictly ascending by Value.Compare,
	// every Updated set ascending; a change builds a new vector, and new
	// Updated slices for the entries it touches, or cuts off a dead prefix.
	vec []proto.VectorEntry
	// seen[i] is the largest tag reader r(i+1) has put in a valQueue this
	// replica received, and floor is their minimum. seen is nil while
	// pruning is off: the shape has no readers, or a reader outside them
	// sent a FastRead, and floor stays where it was.
	seen  []types.Tag
	floor types.Tag
	// ack is FastReadAck{vec, floor}, boxed by publish when either
	// changes: every FastRead between two changes returns this one
	// message.
	ack proto.Message
}

// NewVectorServer creates a VectorServer initialized per Algorithm 2 lines
// 3–6: vali = (0,⊥) with an empty updated set. readers is the shape's R:
// the floor follows readers r1..rR, and a replica built with no readers
// keeps every value, as Algorithm 2 does.
func NewVectorServer(id types.ProcID, readers int) *VectorServer {
	s := &VectorServer{
		id:  id,
		cur: &initialValue,
		vec: []proto.VectorEntry{{Val: types.InitialValue()}},
	}
	if readers > 0 {
		s.seen = make([]types.Tag, readers)
	}
	s.publish()
	return s
}

// publish boxes the reply to the next FastRead, FastReadAck{vec, floor},
// unless the one it holds already is that: the same slice, which is
// frozen, and the same floor.
func (s *VectorServer) publish() {
	if a, ok := s.ack.(proto.FastReadAck); ok && a.Floor == s.floor && len(a.Vector) == len(s.vec) &&
		(len(s.vec) == 0 || &a.Vector[0] == &s.vec[0]) {
		return
	}
	s.ack = proto.FastReadAck{Vector: s.vec[:len(s.vec):len(s.vec)], Floor: s.floor}
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

// dead reports whether v is tagged below the floor.
func (s *VectorServer) dead(v types.Value) bool { return v.Tag.Less(s.floor) }

// live returns vec less its dead prefix, without copying.
func (s *VectorServer) live(vec []proto.VectorEntry) []proto.VectorEntry {
	k := 0
	for k < len(vec) && s.dead(vec[k].Val) {
		k++
	}
	return vec[k:]
}

// see records that reader c sent a valQueue whose largest tag is top, and
// raises the floor to the minimum over the readers. A FastRead from a
// client that is not one of them turns pruning off for good: the floor
// knows nothing of what that client may still return.
func (s *VectorServer) see(c types.ProcID, top types.Tag) {
	i := c.Index - 1
	switch {
	case s.seen == nil:
	case c.Role != types.RoleReader || i < 0 || i >= len(s.seen):
		s.seen = nil
	case s.seen[i].Less(top):
		s.seen[i] = top
		s.floor = slices.MinFunc(s.seen, types.Tag.Compare)
	}
}

// update is Algorithm 2's update(val, c) procedure: record that client c
// holds val, and raise vali if val is newer. val comes from an Update, whose
// Data may be cut from its frame (proto.Decode), so a new entry stores the
// value adopt owns, and vali, if val is newer, points at that same box. vali
// is never below an entry of the vector (every path that adds an entry
// raises it), so a val the vector already holds leaves it as it is. A dead
// val is not stored, and vali, which is never below the floor, stays.
func (s *VectorServer) update(val types.Value, c types.ProcID) {
	s.vec = s.live(s.vec)
	if s.dead(val) {
		return
	}
	i, ok := findEntry(s.vec, val)
	switch {
	case !ok:
		own := adopt(val)
		s.vec = inserted(s.vec, i, proto.VectorEntry{Val: *own, Updated: []types.ProcID{c}})
		if s.cur.Less(val) {
			s.cur = own
		}
	case !s.vec[i].HasUpdated(c):
		vec := slices.Clone(s.vec)
		vec[i].Updated = withProc(vec[i].Updated, c)
		s.vec = vec
	}
}

// fastRead is update(val, c) for every val in the reader's valQueue, after
// which c joins the updated set of every entry: the reader witnesses every
// value in the reply. Lemma 8's proof relies on this: "every server which
// replies to r2 in rd2 adds r2 to its updated set before replying". (With a
// single stored value, as in Dutta et al., this is the original algorithm's
// behaviour; the valuevector generalizes it per value.)
//
// The valQueue's largest value first raises the floor (see), and values
// below the floor are skipped, all but that largest one: it is Lemma 3's
// witness, which a reader whose valQueue went back to {(0,⊥)} needs to
// terminate, so it is stored even when dead (and cut off by the next
// request).
//
// One pass finds what that would change. Usually nothing — the reader is on
// every live entry and its valQueue holds nothing new — and the vector
// becomes its old self less its dead prefix. Otherwise one new vector is
// built from the live entries. Entries whose old updated sets are equal
// share the one new set that adds c (sets are frozen, so sharing is safe).
// The valQueue may have been cut from a frame (proto.Decode), so a new
// entry stores the value adopt owns, and vali, if the valQueue's largest
// value raises it, points at that value's box. Such a value is always a
// new entry: vali is never below an entry of the vector.
func (s *VectorServer) fastRead(queue []types.Value, c types.ProcID) {
	var top types.Value
	for i, v := range queue {
		if i == 0 || top.Less(v) {
			top = v
		}
	}
	s.see(c, top.Tag)
	old := s.live(s.vec)
	var buf [8]types.Value
	fresh, stale := buf[:0], false
	for _, v := range queue {
		if s.dead(v) && v != top {
			continue
		}
		if _, ok := findEntry(old, v); !ok && !slices.Contains(fresh, v) {
			fresh = append(fresh, v)
		}
	}
	for i := range old {
		stale = stale || !old[i].HasUpdated(c)
	}
	if len(fresh) == 0 && !stale {
		s.vec = old
		return
	}
	vec := make([]proto.VectorEntry, len(old), len(old)+len(fresh))
	copy(vec, old)
	// grown remembers the first few sets the rebuild added c to, so an
	// entry whose set equals one of them shares its new set.
	type grown struct{ from, to []types.ProcID }
	var grownBuf [4]grown
	done := grownBuf[:0]
	for i := range vec {
		if vec[i].HasUpdated(c) {
			continue
		}
		j := slices.IndexFunc(done, func(g grown) bool { return slices.Equal(g.from, vec[i].Updated) })
		if j >= 0 {
			vec[i].Updated = done[j].to
			continue
		}
		g := grown{vec[i].Updated, withProc(vec[i].Updated, c)}
		if len(done) < len(grownBuf) {
			done = append(done, g)
		}
		vec[i].Updated = g.to
	}
	var topOwn *types.Value
	if len(fresh) > 0 {
		only := []types.ProcID{c} // never written again, so the new entries share it
		for _, v := range fresh {
			own := adopt(v)
			if v == top {
				topOwn = own
			}
			vec = append(vec, proto.VectorEntry{Val: *own, Updated: only})
		}
		slices.SortFunc(vec, func(a, b proto.VectorEntry) int { return a.Val.Compare(b.Val) })
	}
	s.vec = vec
	if s.cur.Less(top) {
		s.cur = topOwn
	}
}

// Handle implements register.ServerLogic.
//
//   - TagQuery    → TagAck{vali's tag}       (writer's first round)
//   - Query       → QueryAck{vali}
//   - Update      → update(val, c); WRITEACK (writer's second round)
//   - FastRead    → update every valQueue entry for the reader, then reply
//     with the valuevector and the floor (READACK)
//
// An Update without a value and a FastRead value (not a pointer, see
// proto.FastRead) are dropped (nil reply).
func (s *VectorServer) Handle(from types.ProcID, m proto.Message) proto.Message {
	switch msg := m.(type) {
	case proto.TagQuery:
		return proto.TagAck{Tag: &s.cur.Tag}
	case proto.Query:
		return proto.QueryAck{Val: s.cur}
	case proto.Update:
		if msg.Val == nil {
			return nil
		}
		s.update(*msg.Val, from)
		s.publish()
		return proto.UpdateAck{}
	case *proto.FastRead:
		s.fastRead(msg.ValQueue, from)
		s.publish()
		return s.ack
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
