package proto

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"fastreg/internal/types"
)

// fuzzSeeds are valid frames covering every message kind, so the fuzzer
// starts from the interesting corners of the format instead of random
// garbage.
func fuzzSeeds(tb testing.TB) [][]byte {
	tb.Helper()
	val := types.Value{Tag: types.Tag{TS: 42, WID: types.Writer(2)}, Data: "payload"}
	envs := []Envelope{
		{From: types.Reader(1), To: types.Server(3), Key: "k", OpID: 7, Round: 1, Payload: Query{}},
		{From: types.Server(3), To: types.Reader(1), Key: "k", OpID: 7, Round: 1, IsReply: true, Payload: QueryAck{Val: &val}},
		{From: types.Writer(1), To: types.Server(1), OpID: 9, Round: 2, Payload: Update{Val: &val}},
		{From: types.Server(1), To: types.Writer(1), OpID: 9, Round: 2, IsReply: true, Payload: UpdateAck{}},
		{From: types.Writer(1), To: types.Server(2), Key: "k", OpID: 10, Round: 1, Payload: TagQuery{}},
		{From: types.Server(2), To: types.Writer(1), Key: "k", OpID: 10, Round: 1, IsReply: true, Payload: TagAck{Tag: &val.Tag}},
		{From: types.Reader(2), To: types.Server(2), Key: "multi/key", OpID: 1, Round: 1, Payload: &FastRead{ValQueue: []types.Value{val, types.InitialValue()}}},
		{From: types.Server(2), To: types.Reader(2), Key: "multi/key", OpID: 1, Round: 1, IsReply: true, Payload: FastReadAck{Vector: []VectorEntry{
			{Val: val, Updated: []types.ProcID{types.Reader(1), types.Writer(2)}},
			{Val: types.InitialValue()},
		}}},
		// A replica past its first dead value: the floor rides after the vector.
		{From: types.Server(4), To: types.Reader(1), Key: "multi/key", OpID: 2, Round: 1, IsReply: true, Payload: FastReadAck{Vector: []VectorEntry{
			{Val: val, Updated: []types.ProcID{types.Reader(1), types.Reader(2), types.Writer(2)}},
		}, Floor: val.Tag}},
		{From: types.Server(1), To: types.Reader(1), OpID: 3, Round: 1, IsReply: true, Payload: LogAck{Events: []LogEvent{
			{Client: types.Writer(1), Val: val},
		}}},
		// Epoch/weight-stamped frames (continuous audit cutover).
		{From: types.Writer(2), To: types.Server(1), Key: "k", OpID: 11, Round: 1, Epoch: 4, Weight: 1 << 30, Payload: Update{Val: &val}},
		{From: types.Server(1), To: types.Writer(2), Key: "k", OpID: 11, Round: 1, IsReply: true, Epoch: 4, Weight: 1 << 30, Payload: UpdateAck{}},
	}
	seeds := make([][]byte, 0, len(envs)+4)
	for _, e := range envs {
		b, err := Encode(e)
		if err != nil {
			tb.Fatalf("seed encode %v: %v", e, err)
		}
		seeds = append(seeds, b)
	}
	// Batch frames: the whole set in one frame, a minimal two-envelope
	// batch, so the fuzzer mutates the batch header and inner boundaries,
	// a QueryAck, an Update and a FastRead whose payloads are all cut
	// from the frame's one text, so the fuzzer moves the cut offsets
	// across kinds, and a FastRead, a FastReadAck and a TagAck, whose
	// frame's one block carries a value arena, a vector arena and updated
	// sets, so the fuzzer moves the counts that size each.
	mixed := []Envelope{envs[1], envs[2], envs[6]}
	arenas := []Envelope{envs[6], envs[7], envs[5], envs[8]}
	for _, set := range [][]Envelope{envs, envs[:2], mixed, arenas} {
		b, err := EncodeBatch(set)
		if err != nil {
			tb.Fatalf("seed batch encode: %v", err)
		}
		seeds = append(seeds, b)
	}
	// Trace record frames: every record kind of the capture format.
	for _, rec := range traceSeeds() {
		b, err := EncodeTraceRecord(rec)
		if err != nil {
			tb.Fatalf("seed trace encode: %v", err)
		}
		seeds = append(seeds, b)
	}
	return seeds
}

// FuzzCodecRoundTrip locks the wire format before it goes on a real
// network: Decode must never panic or over-allocate on arbitrary bytes,
// must reject truncated and oversized frames, and everything it does
// accept must survive a re-encode/re-decode round trip unchanged
// (canonicality: the codec has exactly one byte representation per
// envelope).
func FuzzCodecRoundTrip(f *testing.F) {
	for _, seed := range fuzzSeeds(f) {
		f.Add(seed)
		// Truncations of valid frames probe every length-check branch.
		f.Add(seed[:len(seed)-1])
		f.Add(seed[:4])
	}
	// Counts that claim 2^32-1 elements: the arenas must not trust them.
	for _, c := range hostileFrames() {
		f.Add(c.frame)
	}
	// A declared body length beyond MaxFrame must be rejected up front.
	huge := binary.BigEndian.AppendUint32(nil, MaxFrame+1)
	f.Add(append(huge, 0, 0, 0))

	f.Fuzz(func(t *testing.T, data []byte) {
		fuzzBatch(t, data)
		fuzzTrace(t, data)
		fuzzAppendDecode(t, data)
		env, n, err := Decode(data)
		if err != nil {
			// Rejected input: fine, as long as the error is sane.
			if n != 0 {
				t.Fatalf("Decode returned error %v but consumed %d bytes", err, n)
			}
			return
		}
		if n < 4 || n > len(data) {
			t.Fatalf("Decode consumed %d of %d bytes", n, len(data))
		}
		if n > 4+MaxFrame {
			t.Fatalf("Decode accepted a frame of %d bytes, over MaxFrame", n)
		}
		// Round trip: re-encoding the decoded envelope must reproduce the
		// consumed bytes exactly, and decode back to an equal envelope.
		out, err := Encode(env)
		if err != nil {
			t.Fatalf("re-encode of decoded envelope failed: %v (env %v)", err, env)
		}
		if !bytes.Equal(out, data[:n]) {
			t.Fatalf("non-canonical frame:\n in:  %x\n out: %x", data[:n], out)
		}
		env2, n2, err := Decode(out)
		if err != nil || n2 != n || !reflect.DeepEqual(env, env2) {
			t.Fatalf("re-decode mismatch: %v / %v (err %v)", env, env2, err)
		}
	})
}

// fuzzBatch holds the batch decoder to the same contract as the single
// decoder: no panics or over-allocation on arbitrary bytes, truncated /
// empty / oversize-count batches rejected with zero bytes consumed, and
// every accepted batch canonical under re-encode/re-decode. Strings cut
// from the batch's one frame string must equal what Decode copies out of
// each envelope's own sub-frame, and must not be views of the input.
func fuzzBatch(t *testing.T, data []byte) {
	t.Helper()
	buf := bytes.Clone(data)
	envs, n, err := DecodeBatch(buf)
	if err != nil {
		if n != 0 {
			t.Fatalf("DecodeBatch returned error %v but consumed %d bytes", err, n)
		}
		return
	}
	for i := range buf {
		buf[i] ^= 0xFF
	}
	// Every QueryAck and Update has a value of its own in the frame's
	// arena: none is nil and no two envelopes share one.
	vals := make(map[*types.Value]int)
	for i, e := range envs {
		var v *types.Value
		switch m := e.Payload.(type) {
		case QueryAck:
			v = m.Val
		case Update:
			v = m.Val
		default:
			continue
		}
		if v == nil {
			t.Fatalf("envelope %d: decoded %T with a nil Val", i, e.Payload)
		}
		if j, dup := vals[v]; dup {
			t.Fatalf("envelopes %d and %d share one decoded value", j, i)
		}
		vals[v] = i
	}
	off := 4 + batchHeader
	for i, e := range envs {
		sub := 4 + int(binary.BigEndian.Uint32(data[off:]))
		want, m, err := Decode(data[off : off+sub])
		if err != nil || m != sub {
			t.Fatalf("envelope %d: Decode of its sub-frame: %d of %d bytes, err %v", i, m, sub, err)
		}
		if !reflect.DeepEqual(e, want) {
			t.Fatalf("envelope %d: batch decode %v, Decode of its sub-frame %v", i, e, want)
		}
		off += sub
	}
	if len(envs) == 0 || len(envs) > MaxBatchEnvelopes {
		t.Fatalf("DecodeBatch accepted %d envelopes", len(envs))
	}
	if n < 4 || n > len(data) || n > 4+MaxBatchFrame {
		t.Fatalf("DecodeBatch consumed %d of %d bytes", n, len(data))
	}
	out, err := EncodeBatch(envs)
	if err != nil {
		t.Fatalf("re-encode of decoded batch failed: %v", err)
	}
	if !bytes.Equal(out, data[:n]) {
		t.Fatalf("non-canonical batch frame:\n in:  %x\n out: %x", data[:n], out)
	}
	envs2, n2, err := DecodeBatch(out)
	if err != nil || n2 != n || !reflect.DeepEqual(envs, envs2) {
		t.Fatalf("batch re-decode mismatch: %v / %v (err %v)", envs, envs2, err)
	}
}

// fuzzAppendDecode holds the pooled-slab decode entry to the contract
// the receive loops rely on: AppendDecode must agree exactly with the
// dedicated decoders (same envelopes, same consumed count, accept/reject
// parity) and must leave the destination prefix untouched either way —
// on arbitrary bytes, including frames that dispatch to the batch path
// and then fail mid-envelope.
func fuzzAppendDecode(t *testing.T, data []byte) {
	t.Helper()
	sentinel := Envelope{From: types.Writer(1), Key: "sentinel", OpID: 99}
	dst := append(GetEnvs(), sentinel)
	// Decode from a buffer that is overwritten straight afterwards, as a
	// pooled read buffer is: no Key, Data or Updated may be a view of it.
	buf := bytes.Clone(data)
	out, n, err := AppendDecode(dst, buf)
	for i := range buf {
		buf[i] ^= 0xFF
	}
	var wantEnvs []Envelope
	var wantN int
	var wantErr error
	if len(data) >= 4+batchHeader && data[4] == batchMarker {
		wantEnvs, wantN, wantErr = DecodeBatch(data)
	} else {
		e, n1, err1 := Decode(data)
		if err1 == nil {
			wantEnvs, wantN = []Envelope{e}, n1
		}
		wantErr = err1
	}
	if (err == nil) != (wantErr == nil) {
		t.Fatalf("AppendDecode err=%v, dedicated decoder err=%v", err, wantErr)
	}
	if err != nil {
		if n != 0 || len(out) != 1 || !reflect.DeepEqual(out[0], sentinel) {
			t.Fatalf("AppendDecode error left dst dirty: n=%d len=%d", n, len(out))
		}
		PutEnvs(out)
		return
	}
	if n != wantN || !reflect.DeepEqual(out[0], sentinel) || !reflect.DeepEqual(out[1:], wantEnvs) {
		t.Fatalf("AppendDecode mismatch: n=%d want %d, got %v want %v", n, wantN, out[1:], wantEnvs)
	}
	PutEnvs(out)
}

// fuzzTrace holds the trace-record decoder (the capture format of
// internal/audit) to the same contract: no panics or over-allocation on
// arbitrary bytes, truncated/oversize frames rejected with zero bytes
// consumed, and every accepted record canonical under re-encode/re-decode.
func fuzzTrace(t *testing.T, data []byte) {
	t.Helper()
	rec, n, err := DecodeTraceRecord(data)
	if err != nil {
		if n != 0 {
			t.Fatalf("DecodeTraceRecord returned error %v but consumed %d bytes", err, n)
		}
		return
	}
	if n < 4 || n > len(data) || n > 4+MaxFrame {
		t.Fatalf("DecodeTraceRecord consumed %d of %d bytes", n, len(data))
	}
	out, err := EncodeTraceRecord(rec)
	if err != nil {
		t.Fatalf("re-encode of decoded trace record failed: %v (%+v)", err, rec)
	}
	if !bytes.Equal(out, data[:n]) {
		t.Fatalf("non-canonical trace frame:\n in:  %x\n out: %x", data[:n], out)
	}
	rec2, n2, err := DecodeTraceRecord(out)
	if err != nil || n2 != n || !reflect.DeepEqual(rec, rec2) {
		t.Fatalf("trace re-decode mismatch: %+v / %+v (err %v)", rec, rec2, err)
	}
}

// TestDecodeTruncatedAll exhaustively truncates every seed frame at every
// byte boundary: the decoder must reject each prefix without panicking
// (deterministic companion to the fuzzer, always run in CI).
func TestDecodeTruncatedAll(t *testing.T) {
	for _, seed := range fuzzSeeds(t) {
		for cut := 0; cut < len(seed); cut++ {
			if _, n, err := Decode(seed[:cut]); err == nil || n != 0 {
				t.Fatalf("truncated frame (%d of %d bytes) accepted", cut, len(seed))
			}
		}
	}
}

// TestDecodeOversizeRejected checks both oversize paths: a declared
// length over MaxFrame, and an inner string length over MaxFrame inside a
// plausible body.
func TestDecodeOversizeRejected(t *testing.T) {
	hdr := binary.BigEndian.AppendUint32(nil, MaxFrame+1)
	if _, _, err := Decode(append(hdr, make([]byte, 16)...)); err == nil {
		t.Fatal("oversize declared length accepted")
	}
	if _, err := Encode(Envelope{Payload: Update{Val: valPtr(types.Value{Data: string(make([]byte, MaxFrame))})}}); err == nil {
		t.Fatal("oversize envelope encoded")
	}
}
