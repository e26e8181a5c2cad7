// Package types defines the identifiers and timestamped values shared by all
// register protocols in this repository.
//
// The model follows Section 2.1 of Huang, Huang & Wei (PODC 2020): a system is
// three disjoint sets of processes — servers, readers and writers — and every
// written value is tagged with a pair (ts, wid) ordered lexicographically
// (Section 5.2), so that values from multiple writers are totally ordered.
package types

import (
	"cmp"
	"fmt"
	"strconv"
	"strings"
)

// Role distinguishes the three disjoint process sets of the system model.
type Role uint8

// The three process roles. Servers hold replicas; readers and writers are
// clients. Roles start at 1 so the zero value is detectably invalid.
const (
	RoleInvalid Role = iota
	RoleServer
	RoleReader
	RoleWriter
)

// String returns the single-letter prefix used throughout the paper
// (s, r, w).
func (r Role) String() string {
	switch r {
	case RoleServer:
		return "s"
	case RoleReader:
		return "r"
	case RoleWriter:
		return "w"
	default:
		return "?"
	}
}

// ProcID identifies one process. It is comparable and usable as a map key.
// Index is 1-based to match the paper's s1..sS, r1..rR, w1..wW naming.
type ProcID struct {
	Role  Role
	Index int
}

// Server returns the ProcID of server s_i (1-based).
func Server(i int) ProcID { return ProcID{RoleServer, i} }

// Reader returns the ProcID of reader r_i (1-based).
func Reader(i int) ProcID { return ProcID{RoleReader, i} }

// Writer returns the ProcID of writer w_i (1-based).
func Writer(i int) ProcID { return ProcID{RoleWriter, i} }

// IsZero reports whether p is the zero ProcID (no process).
func (p ProcID) IsZero() bool { return p.Role == RoleInvalid && p.Index == 0 }

// String renders the paper's names: "s1", "r2", "w1".
func (p ProcID) String() string {
	if p.IsZero() {
		return "⊥"
	}
	return p.Role.String() + strconv.Itoa(p.Index)
}

// Less orders ProcIDs by (Role, Index). Writer IDs must be totally ordered
// for the lexicographic tag order of Section 5.2; this order also gives
// deterministic iteration elsewhere.
func (p ProcID) Less(q ProcID) bool {
	if p.Role != q.Role {
		return p.Role < q.Role
	}
	return p.Index < q.Index
}

// Compare returns -1, 0, or +1 as p is less than, equal to, or greater
// than q in the (Role, Index) order of Less.
func (p ProcID) Compare(q ProcID) int {
	if c := cmp.Compare(p.Role, q.Role); c != 0 {
		return c
	}
	return cmp.Compare(p.Index, q.Index)
}

// Tag is the version identifier (ts, wid) of a written value.
//
// Two tags are ordered by timestamp first and writer ID second:
// (ts1, w_i) < (ts2, w_j) iff ts1 < ts2 or (ts1 = ts2 and w_i < w_j).
// The two-round write of the multi-writer protocols guarantees that equal
// timestamps imply concurrent writes, so breaking ties by writer ID is safe
// (Section 5.2).
type Tag struct {
	TS  int64
	WID ProcID
}

// ZeroTag is the tag of the initial value (0, ⊥): no writer has written yet.
func ZeroTag() Tag { return Tag{TS: 0, WID: ProcID{}} }

// Less reports the strict lexicographic order on tags.
func (t Tag) Less(o Tag) bool {
	if t.TS != o.TS {
		return t.TS < o.TS
	}
	return t.WID.Less(o.WID)
}

// Equal reports tag equality.
func (t Tag) Equal(o Tag) bool { return t == o }

// Compare returns -1, 0, or +1 as t is less than, equal to, or greater
// than o.
func (t Tag) Compare(o Tag) int {
	if c := cmp.Compare(t.TS, o.TS); c != 0 {
		return c
	}
	return t.WID.Compare(o.WID)
}

// String renders "(ts,wid)".
func (t Tag) String() string { return fmt.Sprintf("(%d,%s)", t.TS, t.WID) }

// Value is a register value: a payload and the tag that versions it.
// Payload is a string so that values are comparable and map-keyable; the
// protocols never interpret it.
type Value struct {
	Tag  Tag
	Data string
}

// InitialValue is the register content before any write: tag (0, ⊥) and an
// empty payload.
func InitialValue() Value { return Value{Tag: ZeroTag()} }

// Less orders values by tag.
func (v Value) Less(o Value) bool { return v.Tag.Less(o.Tag) }

// Compare is the total order that sorted valuevectors and valQueues use:
// by tag, then by payload. A tag names one write, so only a faulty process
// produces two values that share a tag but not a payload; ordering them too
// keeps such values distinct entries in a deterministic place.
func (v Value) Compare(o Value) int {
	if c := v.Tag.Compare(o.Tag); c != 0 {
		return c
	}
	return strings.Compare(v.Data, o.Data)
}

// Equal reports whether both tag and payload match.
func (v Value) Equal(o Value) bool { return v == o }

// IsInitial reports whether v carries the initial tag (0, ⊥).
func (v Value) IsInitial() bool { return v.Tag == ZeroTag() }

// String renders "(ts,wid):data".
func (v Value) String() string {
	if v.IsInitial() {
		return "(0,⊥):∅"
	}
	return fmt.Sprintf("%s:%q", v.Tag, v.Data)
}

// MaxValue returns the largest of vs by tag order, or the initial value if
// vs is empty.
func MaxValue(vs ...Value) Value {
	max := InitialValue()
	for _, v := range vs {
		if max.Less(v) {
			max = v
		}
	}
	return max
}

// OpKind distinguishes read and write operations in histories.
type OpKind uint8

// Operation kinds. Starting at 1 keeps the zero value invalid.
const (
	OpInvalid OpKind = iota
	OpRead
	OpWrite
)

// String returns "read" or "write".
func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpWrite:
		return "write"
	default:
		return "invalid"
	}
}
