package proto

import (
	"encoding/binary"
	"errors"
	"fmt"

	"fastreg/internal/types"
)

// Trace record frame: the capture format of the audit subsystem
// (internal/audit). A running replica or client appends one record per
// observed event to its own trace log (a ".trlog" file); cmd/regaudit
// merges the per-process logs offline into one multi-client history and
// re-checks atomicity — the capture/replay answer to "one client process
// can only verify its own operations".
//
// Records are self-delimiting frames in the envelope codec's style:
//
//	u32 body-length | 0xFE | u8 kind | kind-specific fields
//
// The marker byte 0xFE occupies the position of a single envelope frame's
// leading process role (always a valid types.Role, 1..3) and differs from
// the batch marker 0xFF, so the three frame families are unambiguous from
// the first body byte and a trace log accidentally fed to an envelope
// decoder (or vice versa) is rejected instead of misparsed.
//
// Four record kinds exist:
//
//   - TraceHeader opens every file: who wrote it (a replica's ProcID or a
//     client process label), the cluster shape and the protocol, so the
//     merge can cross-check that all logs describe one deployment;
//   - TraceClientOp is one completed (or failed) client operation with
//     its interval in the RECORDING PROCESS's clock domain — timestamps
//     from different files are never comparable, which is exactly the
//     guarantee the offline checker's clock-domain model relies on;
//   - TraceServerHandle is one request handled by a replica, with the
//     value it carried (a write's round-2 payload), the kind of its reply
//     and the value the reply served — the evidence the merge uses to
//     reconstruct writes whose client crashed before logging them, and to
//     audit what each replica actually served;
//   - TraceEpoch is an epoch-boundary stamp: the continuous-audit
//     coordinator (internal/epoch) appends one to every capture log when
//     all weight thrown with an epoch's in-flight ops has returned —
//     Huang's termination condition — marking "every operation of epoch N
//     this log will ever record is already above this line".
//
// Like the envelope codec the format is canonical — every accepted frame
// re-encodes to the same bytes — and fuzz-locked by FuzzCodecRoundTrip.

// TraceKind discriminates trace record types. Zero is invalid so a
// missing kind is detectable.
type TraceKind uint8

// Trace record kinds.
const (
	TraceInvalid TraceKind = iota
	TraceHeader
	TraceClientOp
	TraceServerHandle
	TraceEpoch
)

// String names the kind.
func (k TraceKind) String() string {
	switch k {
	case TraceHeader:
		return "HEADER"
	case TraceClientOp:
		return "CLIENTOP"
	case TraceServerHandle:
		return "HANDLE"
	case TraceEpoch:
		return "EPOCH"
	default:
		return "INVALID"
	}
}

// traceMarker distinguishes trace record frames from single-envelope
// frames (role byte 1..3) and batch frames (0xFF).
const traceMarker = 0xFE

// ErrNotTrace rejects frames that are not trace records.
var ErrNotTrace = errors.New("proto: not a trace record frame")

// TraceRecord is one record of a capture log. Kind selects which fields
// are meaningful (and encoded):
//
//   - TraceHeader: Origin, Protocol, S, T, R, W;
//   - TraceClientOp: Key, Client, OpID, Op, Val, Invoke, Response,
//     Failed, Err, Epoch;
//   - TraceServerHandle: Key, Client, OpID, Server, Round, Payload, Val,
//     Reply, ReplyVal, Epoch, Seq;
//   - TraceEpoch: Epoch (the epoch that just closed).
type TraceRecord struct {
	Kind TraceKind

	// Header fields: the recording process and the deployment it belongs
	// to. Origin is "s3" for replica logs and a free-form process label
	// ("client-8812-1") for client logs; replica logs additionally carry
	// the replica's identity in Server (zero for client logs), which is
	// how the merge tells the two apart.
	Origin   string
	Protocol string
	S, T     int
	R, W     int

	// Shared addressing: the key and the operation's owner.
	Key    string
	Client types.ProcID
	OpID   uint64

	// Client-op fields: the operation as the client observed it. Invoke
	// and Response are vclock times in the recording process's per-key
	// clock domain; Failed marks operations that ended in an error (Err),
	// whose effect at the servers is indeterminate.
	Op       types.OpKind
	Val      types.Value
	Invoke   int64
	Response int64
	Failed   bool
	Err      string

	// Server-handle fields: one handled request at replica Server. Val is
	// the value the REQUEST carried (a write's Update payload; zero for
	// queries), Reply the kind of the reply (KindInvalid when the replica
	// dropped the request), ReplyVal the maximal value the reply served:
	// a QueryAck's value, a FastReadAck's largest one, a TagAck's tag with
	// no data, zero for plain acks.
	Server   types.ProcID
	Round    uint8
	Payload  Kind
	Reply    Kind
	ReplyVal types.Value

	// Epoch tags the record with the continuous-audit epoch it belongs to
	// (zero when no coordinator is attached): the op's borrow phase on
	// client records, the request envelope's stamp on handle records, and
	// the closing epoch on boundary records. Explicit tags — not log
	// position — attribute records to epochs, because an op of epoch N+1
	// can complete and append before epoch N's boundary is stamped.
	Epoch uint64
	// Seq orders handle records of ONE replica across connections: the
	// per-key handled counter read under the shard lock, a total order log
	// position cannot give (capture emission happens outside the lock).
	// Zero means "unordered" (pre-rotation logs); the served-value
	// cross-check skips such records.
	Seq uint64
}

// String renders the record for diagnostics.
func (t TraceRecord) String() string {
	switch t.Kind {
	case TraceHeader:
		return fmt.Sprintf("HEADER{%s %s S=%d t=%d R=%d W=%d}", t.Origin, t.Protocol, t.S, t.T, t.R, t.W)
	case TraceClientOp:
		status := ""
		if t.Failed {
			status = " FAILED(" + t.Err + ")"
		}
		return fmt.Sprintf("OP{%s %s#%d %s %s [%d,%d]%s}", t.Key, t.Client, t.OpID, t.Op, t.Val, t.Invoke, t.Response, status)
	case TraceServerHandle:
		return fmt.Sprintf("HANDLE{%s %s %s#%d.%d %s req=%s reply=%s:%s}", t.Server, t.Key, t.Client, t.OpID, t.Round, t.Payload, t.Val, t.Reply, t.ReplyVal)
	case TraceEpoch:
		return fmt.Sprintf("EPOCH{%d}", t.Epoch)
	default:
		return "INVALID"
	}
}

// EncodeTraceRecord serializes a record to a self-delimiting frame.
func EncodeTraceRecord(t TraceRecord) ([]byte, error) { return AppendTraceRecord(nil, t) }

// AppendTraceRecord appends the record's frame to dst and returns the
// extended slice.
func AppendTraceRecord(dst []byte, t TraceRecord) ([]byte, error) {
	start := len(dst)
	w := writer{buf: dst}
	w.u32(0) // length placeholder
	w.u8(traceMarker)
	w.u8(uint8(t.Kind))
	switch t.Kind {
	case TraceHeader:
		w.str(t.Origin)
		w.str(t.Protocol)
		w.u32(uint32(t.S))
		w.u32(uint32(t.T))
		w.u32(uint32(t.R))
		w.u32(uint32(t.W))
		w.proc(t.Server)
	case TraceClientOp:
		w.str(t.Key)
		w.proc(t.Client)
		w.u64(t.OpID)
		w.u8(uint8(t.Op))
		w.value(t.Val)
		w.i64(t.Invoke)
		w.i64(t.Response)
		if t.Failed {
			w.u8(1)
		} else {
			w.u8(0)
		}
		w.str(t.Err)
		w.u64(t.Epoch)
	case TraceServerHandle:
		w.str(t.Key)
		w.proc(t.Client)
		w.u64(t.OpID)
		w.proc(t.Server)
		w.u8(t.Round)
		w.u8(uint8(t.Payload))
		w.u8(uint8(t.Reply))
		w.value(t.Val)
		w.value(t.ReplyVal)
		w.u64(t.Epoch)
		w.u64(t.Seq)
	case TraceEpoch:
		w.u64(t.Epoch)
	default:
		return nil, fmt.Errorf("%w: trace kind %d", ErrBadKind, t.Kind)
	}
	body := len(w.buf) - start - 4
	if body > MaxFrame {
		return nil, ErrOversize
	}
	binary.BigEndian.PutUint32(w.buf[start:start+4], uint32(body))
	return w.buf, nil
}

// DecodeTraceRecord parses one frame produced by EncodeTraceRecord,
// returning the record and the number of bytes consumed. Frames that are
// not trace records (envelopes, batches) fail with ErrNotTrace.
func DecodeTraceRecord(buf []byte) (TraceRecord, int, error) {
	if len(buf) < 4 {
		return TraceRecord{}, 0, ErrTruncated
	}
	body := binary.BigEndian.Uint32(buf[:4])
	if body > MaxFrame {
		return TraceRecord{}, 0, ErrOversize
	}
	total := 4 + int(body)
	if len(buf) < total {
		return TraceRecord{}, 0, ErrTruncated
	}
	r := &reader{buf: buf[4:total]}
	if r.u8() != traceMarker {
		return TraceRecord{}, 0, ErrNotTrace
	}
	var t TraceRecord
	t.Kind = TraceKind(r.u8())
	switch t.Kind {
	case TraceHeader:
		t.Origin = r.str()
		t.Protocol = r.str()
		t.S = int(r.u32())
		t.T = int(r.u32())
		t.R = int(r.u32())
		t.W = int(r.u32())
		t.Server = r.proc()
		// Shape fields must survive the int round trip canonically.
		if r.err == nil && (t.S > 1<<30 || t.T > 1<<30 || t.R > 1<<30 || t.W > 1<<30) {
			r.fail(ErrOversize)
		}
	case TraceClientOp:
		t.Key = r.str()
		t.Client = r.proc()
		t.OpID = r.u64()
		t.Op = types.OpKind(r.u8())
		if r.err == nil && (t.Op != types.OpRead && t.Op != types.OpWrite) {
			r.fail(fmt.Errorf("%w: op kind %d", ErrBadKind, t.Op))
		}
		t.Val = r.value()
		t.Invoke = r.i64()
		t.Response = r.i64()
		switch flag := r.u8(); flag {
		case 0:
		case 1:
			t.Failed = true
		default:
			r.fail(errBadFlag)
		}
		t.Err = r.str()
		t.Epoch = r.u64()
	case TraceServerHandle:
		t.Key = r.str()
		t.Client = r.proc()
		t.OpID = r.u64()
		t.Server = r.proc()
		t.Round = r.u8()
		t.Payload = Kind(r.u8())
		if r.err == nil && (t.Payload == KindInvalid || t.Payload > lastKind) {
			r.fail(fmt.Errorf("%w: payload kind %d", ErrBadKind, t.Payload))
		}
		t.Reply = Kind(r.u8())
		if r.err == nil && t.Reply > lastKind {
			r.fail(fmt.Errorf("%w: reply kind %d", ErrBadKind, t.Reply))
		}
		t.Val = r.value()
		t.ReplyVal = r.value()
		t.Epoch = r.u64()
		t.Seq = r.u64()
	case TraceEpoch:
		t.Epoch = r.u64()
	default:
		return TraceRecord{}, 0, fmt.Errorf("%w: trace kind %d", ErrBadKind, t.Kind)
	}
	if r.err != nil {
		return TraceRecord{}, 0, r.err
	}
	if r.off != len(r.buf) {
		return TraceRecord{}, 0, fmt.Errorf("proto: %d trailing bytes in trace frame", len(r.buf)-r.off)
	}
	return t, total, nil
}
