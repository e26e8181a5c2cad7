// Package proto defines the messages exchanged between clients and servers
// in every protocol of the design space, plus a compact binary codec so the
// same messages can travel over real byte streams.
//
// The algorithm schema of Section 2.2 has exactly two interaction shapes per
// round-trip: a query (collect information from servers) and an update (send
// information to servers, receive an ACK or data). The message set below
// covers both shapes for all four protocol families:
//
//   - Query/QueryAck      — phase-1 of ABD / LS97 reads;
//   - TagQuery/TagAck     — phase-1 of the two-round writes, which need
//     the maximal tag and nothing of its value;
//   - Update/UpdateAck    — phase-2 writes and read write-backs;
//   - FastRead/FastReadAck — the one-round read of the W2R1 and W1R1
//     algorithms (Algorithm 1), carrying the reader's valQueue out and the
//     server's valuevector (values with their updated sets) back.
package proto

import (
	"fmt"
	"slices"
	"strings"

	"fastreg/internal/types"
)

// Kind discriminates message payload types on the wire.
type Kind uint8

// Message kinds. Zero is invalid so a missing payload is detectable.
const (
	KindInvalid Kind = iota
	KindQuery
	KindQueryAck
	KindUpdate
	KindUpdateAck
	KindFastRead
	KindFastReadAck
	KindLogAck
	KindTagQuery
	KindTagAck

	lastKind = KindTagAck
)

// String names the kind like the paper's message names.
func (k Kind) String() string {
	switch k {
	case KindQuery:
		return "QUERY"
	case KindQueryAck:
		return "READACK"
	case KindUpdate:
		return "WRITE"
	case KindUpdateAck:
		return "WRITEACK"
	case KindFastRead:
		return "READ"
	case KindFastReadAck:
		return "READACK*"
	case KindLogAck:
		return "LOGACK"
	case KindTagQuery:
		return "TAGQUERY"
	case KindTagAck:
		return "TAGACK"
	default:
		return "INVALID"
	}
}

// Message is implemented by every payload type.
type Message interface {
	Kind() Kind
	fmt.Stringer
}

// Query asks a server for its current value (phase 1 of a two-round write or
// read).
type Query struct{}

// Kind implements Message.
func (Query) Kind() Kind { return KindQuery }

// String implements fmt.Stringer.
func (Query) String() string { return "QUERY" }

// QueryAck returns the server's current (maximal) value.
//
// Val points at a value nobody writes through: the replica's current value
// (shared by every QueryAck until the replica adopts a newer one, which it
// allocates afresh) or a slot of a decoded frame's value arena. Holding it
// by pointer is what lets a QueryAck sit in a Message without allocating.
// Whoever keeps the value copies *Val, never the pointer, and a decoded
// Val's Data is cut from its frame's text (Decode), so whoever keeps that
// beyond the message clones it too. A nil Val is invalid: Encode rejects
// it, operations reject it as a bad reply.
type QueryAck struct {
	Val *types.Value
}

// Kind implements Message.
func (QueryAck) Kind() Kind { return KindQueryAck }

// String implements fmt.Stringer.
func (m QueryAck) String() string { return "READACK{" + valString(m.Val) + "}" }

// TagQuery asks a server for the tag of its current value (phase 1 of a
// two-round write, which keeps nothing of the value but its timestamp).
type TagQuery struct{}

// Kind implements Message.
func (TagQuery) Kind() Kind { return KindTagQuery }

// String implements fmt.Stringer.
func (TagQuery) String() string { return "TAGQUERY" }

// TagAck returns the tag of the server's current (maximal) value.
//
// Tag follows QueryAck's rules: it points at the tag of the replica's
// current value or of a decoded frame's value arena slot, and whoever
// keeps the tag copies *Tag. A nil Tag is invalid: Encode rejects it,
// operations reject it as a bad reply.
type TagAck struct {
	Tag *types.Tag
}

// Kind implements Message.
func (TagAck) Kind() Kind { return KindTagAck }

// String implements fmt.Stringer.
func (m TagAck) String() string {
	if m.Tag == nil {
		return "TAGACK{<nil>}"
	}
	return "TAGACK{" + m.Tag.String() + "}"
}

// Update stores a value on a server (phase 2 of a write, or a read
// write-back).
//
// Val follows QueryAck's rules: it points at the sending operation's own
// tagged value, which the operation never writes again once sent, or at a
// decoded frame's arena slot, whose Data owns its bytes. A server that
// adopts the value copies *Val; a nil Val is invalid and servers drop the
// message.
type Update struct {
	Val *types.Value
}

// Kind implements Message.
func (Update) Kind() Kind { return KindUpdate }

// String implements fmt.Stringer.
func (m Update) String() string { return "WRITE{" + valString(m.Val) + "}" }

func valString(v *types.Value) string {
	if v == nil {
		return "<nil>"
	}
	return v.String()
}

// UpdateAck acknowledges an Update.
type UpdateAck struct{}

// Kind implements Message.
func (UpdateAck) Kind() Kind { return KindUpdateAck }

// String implements fmt.Stringer.
func (UpdateAck) String() string { return "WRITEACK" }

// FastRead is the single-round read request of Algorithm 1 (line 19):
// "send(read, valQueue) to all servers". The queue carries every value the
// reader has previously seen, so the single round both disseminates values
// (the server updates its valuevector) and queries.
//
// A FastRead travels by pointer: a Message holding one is a *FastRead,
// which a reader builds once per valQueue change and Decode places in
// its frame's block, so no message is boxed into an interface. Encode
// rejects a FastRead value with ErrBadKind, and replicas drop it. Its
// methods keep value receivers only because the benchmark module still
// builds and type-switches on the value type.
type FastRead struct {
	ValQueue []types.Value
}

// Kind implements Message.
func (FastRead) Kind() Kind { return KindFastRead }

// String implements fmt.Stringer.
func (m FastRead) String() string {
	parts := make([]string, len(m.ValQueue))
	for i, v := range m.ValQueue {
		parts[i] = v.String()
	}
	return "READ{queue=[" + strings.Join(parts, " ") + "]}"
}

// VectorEntry is one row of a server's valuevector: a value plus the set of
// clients known to have updated (proposed or relayed) it.
type VectorEntry struct {
	Val     types.Value
	Updated []types.ProcID // sorted, deduplicated
}

// Clone deep-copies the entry so server state cannot be aliased by clients.
func (e VectorEntry) Clone() VectorEntry {
	up := make([]types.ProcID, len(e.Updated))
	copy(up, e.Updated)
	return VectorEntry{Val: e.Val, Updated: up}
}

// HasUpdated reports whether client p is in the entry's updated set.
func (e VectorEntry) HasUpdated(p types.ProcID) bool {
	for _, q := range e.Updated {
		if q == p {
			return true
		}
	}
	return false
}

// String implements fmt.Stringer.
func (e VectorEntry) String() string {
	ids := make([]string, len(e.Updated))
	for i, p := range e.Updated {
		ids[i] = p.String()
	}
	return e.Val.String() + "⇐{" + strings.Join(ids, ",") + "}"
}

// NormalizeUpdated sorts and deduplicates the updated set in place and
// returns it. Entries travel on the wire, so a canonical form keeps
// executions deterministic and comparisons cheap.
func NormalizeUpdated(ps []types.ProcID) []types.ProcID {
	slices.SortFunc(ps, types.ProcID.Compare)
	return slices.Compact(ps)
}

// FastReadAck is the server's reply to FastRead: its valuevector
// (Algorithm 2 replies with everything needed for the admissibility test)
// and its dead-value floor. The vector holds every value the replica
// received but those tagged below Floor, which no read in progress or to
// come can return (opkit's "Dead values"); a reader may drop such values
// from its valQueue. The zero Floor drops nothing.
//
// An honest replica sends the vector strictly ascending by Value.Compare
// and shares it with its own state (opkit.VectorServer): a holder of a
// FastReadAck reads Vector and the Updated slices and never writes through
// them. Receivers check the order instead of trusting it.
type FastReadAck struct {
	Vector []VectorEntry
	Floor  types.Tag
}

// Kind implements Message.
func (FastReadAck) Kind() Kind { return KindFastReadAck }

// String implements fmt.Stringer.
func (m FastReadAck) String() string {
	parts := make([]string, len(m.Vector))
	for i, e := range m.Vector {
		parts[i] = e.String()
	}
	return "READACK*{" + strings.Join(parts, " ") + "}"
}

// Entry returns the vector entry for value v and whether it exists.
func (m FastReadAck) Entry(v types.Value) (VectorEntry, bool) {
	for _, e := range m.Vector {
		if e.Val == v {
			return e, true
		}
	}
	return VectorEntry{}, false
}

// Values returns the set of values present in the ack's vector, in tag order.
func (m FastReadAck) Values() []types.Value {
	vs := make([]types.Value, 0, len(m.Vector))
	for _, e := range m.Vector {
		vs = append(vs, e.Val)
	}
	slices.SortStableFunc(vs, func(a, b types.Value) int { return a.Tag.Compare(b.Tag) })
	return vs
}
