package proto

import (
	"errors"
	"reflect"
	"testing"

	"fastreg/internal/types"
)

// traceSeeds returns valid trace records of every kind for round-trip
// tests and fuzz seeding.
func traceSeeds() []TraceRecord {
	val := types.Value{Tag: types.Tag{TS: 7, WID: types.Writer(2)}, Data: "vv"}
	return []TraceRecord{
		{Kind: TraceHeader, Origin: "s2", Protocol: "W2R2", S: 3, T: 1, R: 4, W: 4, Server: types.Server(2)},
		{Kind: TraceHeader, Origin: "client-991-1", Protocol: "ABD", S: 5, T: 2, R: 3, W: 1},
		{Kind: TraceClientOp, Key: "run/k-01", Client: types.Writer(2), OpID: 9, Op: types.OpWrite,
			Val: val, Invoke: 3, Response: 8},
		{Kind: TraceClientOp, Key: "run/k-01", Client: types.Reader(1), OpID: 2, Op: types.OpRead,
			Val: types.InitialValue(), Invoke: 1, Response: 2},
		{Kind: TraceClientOp, Key: "k", Client: types.Writer(1), OpID: 3, Op: types.OpWrite,
			Val: val, Invoke: 9, Response: 10, Failed: true, Err: "register: operation timed out"},
		{Kind: TraceClientOp, Key: "k", Client: types.Reader(2), OpID: 4, Op: types.OpRead,
			Val: val, Invoke: 5, Response: 6, Epoch: 3},
		{Kind: TraceServerHandle, Key: "k", Client: types.Writer(2), OpID: 9, Server: types.Server(3),
			Round: 2, Payload: KindUpdate, Reply: KindUpdateAck, Val: val},
		{Kind: TraceServerHandle, Key: "k", Client: types.Reader(1), OpID: 2, Server: types.Server(1),
			Round: 1, Payload: KindQuery, Reply: KindQueryAck, ReplyVal: val, Epoch: 3, Seq: 17},
		{Kind: TraceServerHandle, Key: "k", Client: types.Writer(2), OpID: 10, Server: types.Server(3),
			Round: 1, Payload: KindTagQuery, Reply: KindTagAck, ReplyVal: types.Value{Tag: val.Tag}, Seq: 18},
		// A request the replica dropped: no reply kind.
		{Kind: TraceServerHandle, Key: "k", Client: types.Writer(2), OpID: 11, Server: types.Server(3),
			Round: 2, Payload: KindUpdate, Val: val, Seq: 19},
		{Kind: TraceEpoch, Epoch: 5},
	}
}

func TestTraceRecordRoundTrip(t *testing.T) {
	for _, rec := range traceSeeds() {
		b, err := EncodeTraceRecord(rec)
		if err != nil {
			t.Fatalf("encode %v: %v", rec, err)
		}
		got, n, err := DecodeTraceRecord(b)
		if err != nil || n != len(b) {
			t.Fatalf("decode %v: n=%d err=%v", rec, n, err)
		}
		if !reflect.DeepEqual(rec, got) {
			t.Fatalf("round trip mismatch:\n in:  %+v\n out: %+v", rec, got)
		}
	}
}

// TestTraceRecordStream checks the log layout: records appended one after
// another into one buffer decode back in order, each consuming exactly its
// own frame. (A log cut mid-frame is the audit ingest's case:
// TestMergePartialReplicaLogs.)
func TestTraceRecordStream(t *testing.T) {
	var log []byte
	seeds := traceSeeds()
	for _, rec := range seeds {
		var err error
		if log, err = AppendTraceRecord(log, rec); err != nil {
			t.Fatal(err)
		}
	}
	for i, want := range seeds {
		got, n, err := DecodeTraceRecord(log)
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("record %d mismatch: %+v vs %+v", i, want, got)
		}
		log = log[n:]
	}
	if len(log) != 0 {
		t.Fatalf("%d bytes left after the last record", len(log))
	}
}

// TestTraceRejectsOtherFrames locks the marker discipline: envelope and
// batch frames are not trace records, and vice versa.
func TestTraceRejectsOtherFrames(t *testing.T) {
	env, err := Encode(Envelope{From: types.Writer(1), To: types.Server(1), OpID: 1, Round: 1, Payload: Query{}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecodeTraceRecord(env); !errors.Is(err, ErrNotTrace) {
		t.Fatalf("envelope frame accepted as trace record: %v", err)
	}
	batch, err := EncodeBatch([]Envelope{{From: types.Writer(1), To: types.Server(1), OpID: 1, Round: 1, Payload: Query{}}})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecodeTraceRecord(batch); !errors.Is(err, ErrNotTrace) {
		t.Fatalf("batch frame accepted as trace record: %v", err)
	}
	rec, err := EncodeTraceRecord(traceSeeds()[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Decode(rec); err == nil {
		t.Fatal("trace frame accepted as envelope")
	}
	if _, _, err := DecodeBatch(rec); err == nil {
		t.Fatal("trace frame accepted as batch")
	}
}

func TestTraceRejectsInvalid(t *testing.T) {
	if _, err := EncodeTraceRecord(TraceRecord{}); err == nil {
		t.Fatal("zero-kind record encoded")
	}
	// A client op with an invalid op kind must not decode.
	rec := TraceRecord{Kind: TraceClientOp, Key: "k", Client: types.Writer(1), OpID: 1, Op: types.OpWrite}
	b, err := EncodeTraceRecord(rec)
	if err != nil {
		t.Fatal(err)
	}
	// The op kind byte sits right after marker+kind+key+proc+opid.
	off := 4 + 1 + 1 + (4 + 1) + (1 + 4) + 8
	b[off] = 99
	if _, _, err := DecodeTraceRecord(b); err == nil {
		t.Fatal("invalid op kind accepted")
	}
}
