// Package crucialinfo implements the full-info and crucial-info models of
// Section 4.1.
//
// In the full-info model a server is an append-only log: it appends
// everything it receives (written values and the markers left by the first
// round-trip of reads) and replies with the entire log. No implementation
// can use fewer round-trips than a full-info implementation, so the
// impossibility argument only needs to defeat protocols of this form.
//
// The crucial information of a server, for two tracked writes, is the order
// in which it received them — "12" or "21". The package provides:
//
//   - LogServer: the append-only-log server;
//   - Protocol: a best-effort full-info W1R2 candidate (one-round writes,
//     two-round reads deciding by majority over log orders) — the strawman
//     the chain argument of internal/chains defeats;
//   - FlippingServer: an adversarial server whose crucial info is changed
//     by a reader's first round-trip, driving the sieve analysis of
//     Section 4.2 (Fig 8);
//   - Crucial: extraction of the "12"/"21" string from a log.
package crucialinfo

import (
	"strings"

	"fastreg/internal/proto"
	"fastreg/internal/types"
)

// LogServer is the full-info server: an append-only log.
type LogServer struct {
	id  types.ProcID
	log []proto.LogEvent
}

// NewLogServer creates an empty-log server.
func NewLogServer(id types.ProcID) *LogServer { return &LogServer{id: id} }

// ID implements register.ServerLogic.
func (s *LogServer) ID() types.ProcID { return s.id }

// CurrentValue implements register.ServerLogic: the maximal written value
// in the log (by tag), used only for inspection.
func (s *LogServer) CurrentValue() types.Value {
	cur := types.InitialValue()
	for _, e := range s.log {
		if !e.IsReadMark() && cur.Less(e.Val) {
			cur = e.Val
		}
	}
	return cur
}

// Log returns a snapshot of the append-only log.
func (s *LogServer) Log() []proto.LogEvent {
	out := make([]proto.LogEvent, len(s.log))
	copy(out, s.log)
	return out
}

// Handle implements register.ServerLogic.
//
//   - Update   → append (client, value), WRITEACK; dropped without a value;
//   - FastRead → append a read marker (the blind effect of a reader's first
//     round-trip), reply with the full log;
//   - Query    → reply with the full log without appending (a pure query).
func (s *LogServer) Handle(from types.ProcID, m proto.Message) proto.Message {
	switch msg := m.(type) {
	case proto.Update:
		if msg.Val == nil {
			return nil
		}
		// An Update's Data is cut from its frame (proto.Decode): the log
		// keeps a copy of its own.
		val := *msg.Val
		val.Data = strings.Clone(val.Data)
		s.log = append(s.log, proto.LogEvent{Client: from, Val: val})
		return proto.UpdateAck{}
	case proto.FastRead:
		s.log = append(s.log, proto.LogEvent{Client: from})
		return proto.LogAck{Events: s.Log()}
	case proto.Query:
		return proto.LogAck{Events: s.Log()}
	default:
		return nil
	}
}

// Crucial extracts the server's crucial information for two tracked values:
// "12" if v1 was received before v2, "21" for the converse, "1"/"2" if only
// one is present, "" if neither.
func Crucial(log []proto.LogEvent, v1, v2 types.Value) string {
	out := ""
	for _, e := range log {
		switch {
		case e.IsReadMark():
		case e.Val == v1 && !contains(out, '1'):
			out += "1"
		case e.Val == v2 && !contains(out, '2'):
			out += "2"
		}
	}
	return out
}

func contains(s string, c byte) bool {
	for i := 0; i < len(s); i++ {
		if s[i] == c {
			return true
		}
	}
	return false
}

// FlippingServer wraps a LogServer with the adversarial behaviour Section
// 4.2 sieves out: when the designated reader's first round-trip (FastRead)
// arrives, the server swaps the receipt order of the first two distinct
// written values in its log — its crucial info flips from "12" to "21".
// This is the only effect a blind first round-trip can have on crucial
// information, per the crucial-info model.
type FlippingServer struct {
	LogServer
	trigger types.ProcID
	flipped bool
}

// NewFlippingServer creates a flipping server triggered by the given
// reader.
func NewFlippingServer(id, trigger types.ProcID) *FlippingServer {
	return &FlippingServer{LogServer: LogServer{id: id}, trigger: trigger}
}

// Flipped reports whether the flip has occurred.
func (s *FlippingServer) Flipped() bool { return s.flipped }

// Handle implements register.ServerLogic.
func (s *FlippingServer) Handle(from types.ProcID, m proto.Message) proto.Message {
	if _, isRead := m.(proto.FastRead); isRead && from == s.trigger && !s.flipped {
		s.flipWrites()
		s.flipped = true
	}
	return s.LogServer.Handle(from, m)
}

// flipWrites swaps the first two distinct written values in the log.
func (s *FlippingServer) flipWrites() {
	first, second := -1, -1
	for i, e := range s.log {
		if e.IsReadMark() {
			continue
		}
		if first == -1 {
			first = i
		} else if s.log[first].Val != e.Val {
			second = i
			break
		}
	}
	if first >= 0 && second >= 0 {
		s.log[first], s.log[second] = s.log[second], s.log[first]
	}
}
