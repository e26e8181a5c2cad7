package proto

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"fastreg/internal/types"
)

// batchEnvs is a mixed-kind envelope set for batch tests: requests and
// replies, several keys, every correlation field exercised.
func batchEnvs(tb testing.TB) []Envelope {
	tb.Helper()
	val := types.Value{Tag: types.Tag{TS: 7, WID: types.Writer(1)}, Data: "v7"}
	return []Envelope{
		{From: types.Writer(1), To: types.Server(2), Key: "a", OpID: 1, Round: 1, Payload: Query{}},
		{From: types.Writer(1), To: types.Server(2), Key: "b", OpID: 4, Round: 2, Payload: Update{Val: &val}},
		{From: types.Server(2), To: types.Reader(3), Key: "a", OpID: 9, Round: 1, IsReply: true, Payload: QueryAck{Val: &val}},
		{From: types.Reader(3), To: types.Server(2), Key: "c/deep", OpID: 2, Round: 1, Payload: &FastRead{ValQueue: []types.Value{val}}},
		{From: types.Server(2), To: types.Reader(3), Key: "c/deep", OpID: 2, Round: 1, IsReply: true, Payload: FastReadAck{Vector: []VectorEntry{
			{Val: types.InitialValue(), Updated: []types.ProcID{types.Reader(3)}},
			{Val: val, Updated: []types.ProcID{types.Reader(3), types.Writer(1)}},
		}}},
	}
}

func TestBatchRoundTrip(t *testing.T) {
	envs := batchEnvs(t)
	for n := 1; n <= len(envs); n++ {
		b, err := EncodeBatch(envs[:n])
		if err != nil {
			t.Fatalf("EncodeBatch(%d): %v", n, err)
		}
		got, used, err := DecodeBatch(b)
		if err != nil {
			t.Fatalf("DecodeBatch(%d): %v", n, err)
		}
		if used != len(b) {
			t.Fatalf("DecodeBatch consumed %d of %d bytes", used, len(b))
		}
		if !reflect.DeepEqual(got, envs[:n]) {
			t.Fatalf("round trip mismatch:\n got  %v\n want %v", got, envs[:n])
		}
		// Canonical: re-encoding reproduces the exact bytes.
		b2, err := EncodeBatch(got)
		if err != nil || !bytes.Equal(b, b2) {
			t.Fatalf("non-canonical batch (err %v):\n in  %x\n out %x", err, b, b2)
		}
	}
}

func TestBatchRejectsEmpty(t *testing.T) {
	if _, err := EncodeBatch(nil); !errors.Is(err, ErrEmptyBatch) {
		t.Fatalf("EncodeBatch(nil): got %v, want ErrEmptyBatch", err)
	}
	// A hand-built frame declaring zero envelopes must be rejected too.
	frame := binary.BigEndian.AppendUint32(nil, batchHeader)
	frame = append(frame, batchMarker)
	frame = binary.BigEndian.AppendUint32(frame, 0)
	if _, _, err := DecodeBatch(frame); !errors.Is(err, ErrEmptyBatch) {
		t.Fatalf("zero-count batch: got %v, want ErrEmptyBatch", err)
	}
}

func TestBatchRejectsOversizeCount(t *testing.T) {
	frame := binary.BigEndian.AppendUint32(nil, batchHeader)
	frame = append(frame, batchMarker)
	frame = binary.BigEndian.AppendUint32(frame, MaxBatchEnvelopes+1)
	if _, _, err := DecodeBatch(frame); !errors.Is(err, ErrOversize) {
		t.Fatalf("oversize count: got %v, want ErrOversize", err)
	}
	if _, err := EncodeBatch(make([]Envelope, MaxBatchEnvelopes+1)); !errors.Is(err, ErrOversize) {
		t.Fatalf("oversize encode count: got %v, want ErrOversize", err)
	}
	hdr := binary.BigEndian.AppendUint32(nil, MaxBatchFrame+1)
	if _, _, err := DecodeBatch(append(hdr, batchMarker)); !errors.Is(err, ErrOversize) {
		t.Fatalf("oversize body: got %v, want ErrOversize", err)
	}
}

func TestBatchRejectsTruncated(t *testing.T) {
	b, err := EncodeBatch(batchEnvs(t))
	if err != nil {
		t.Fatal(err)
	}
	for cut := 0; cut < len(b); cut++ {
		if _, n, err := DecodeBatch(b[:cut]); err == nil || n != 0 {
			t.Fatalf("truncated batch (%d of %d bytes) accepted", cut, len(b))
		}
	}
	// Count declaring more envelopes than the body holds.
	short, err := EncodeBatch(batchEnvs(t)[:1])
	if err != nil {
		t.Fatal(err)
	}
	binary.BigEndian.PutUint32(short[5:9], 2)
	if _, _, err := DecodeBatch(short); err == nil {
		t.Fatal("batch with inflated count accepted")
	}
}

func TestBatchRejectsSingleFrame(t *testing.T) {
	single, err := Encode(batchEnvs(t)[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := DecodeBatch(single); !errors.Is(err, ErrBadKind) {
		t.Fatalf("DecodeBatch of single frame: got %v, want ErrBadKind", err)
	}
	// And the other direction: Decode must reject a batch frame (its
	// marker byte is an invalid process role).
	batch, err := EncodeBatch(batchEnvs(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Decode(batch); err == nil {
		t.Fatal("Decode accepted a batch frame")
	}
}

func TestAppendDecodeBothKinds(t *testing.T) {
	envs := batchEnvs(t)
	single, err := Encode(envs[0])
	if err != nil {
		t.Fatal(err)
	}
	batch, err := EncodeBatch(envs)
	if err != nil {
		t.Fatal(err)
	}
	sentinel := Envelope{From: types.Writer(9), Key: "sentinel", OpID: 99}
	dst := []Envelope{sentinel}
	dst, n, err := AppendDecode(dst, single)
	if err != nil || n != len(single) {
		t.Fatalf("AppendDecode(single): n=%d err=%v", n, err)
	}
	dst, n, err = AppendDecode(dst, batch)
	if err != nil || n != len(batch) {
		t.Fatalf("AppendDecode(batch): n=%d err=%v", n, err)
	}
	want := append([]Envelope{sentinel, envs[0]}, envs...)
	if !reflect.DeepEqual(dst, want) {
		t.Fatalf("AppendDecode accumulated:\n got  %v\n want %v", dst, want)
	}
	// Errors must leave the destination's length untouched.
	before := len(dst)
	if _, n, err := AppendDecode(dst, batch[:7]); err == nil || n != 0 {
		t.Fatalf("truncated frame accepted: n=%d err=%v", n, err)
	}
	if len(dst) != before {
		t.Fatalf("error changed dst length: %d -> %d", before, len(dst))
	}
}

// TestReadFramesIntoPooledNoAlias drives the full pooled receive cycle
// and proves the no-alias guarantee the receive loops rely on: envelopes
// decoded into a pooled slab stay valid — byte for byte — after the slab
// AND the codec's scratch buffers have been recycled and refilled by
// later, different frames. If the decoder ever returned views into its
// read buffer (or PutEnvs failed to sever the slab), the churn below
// would corrupt the retained envelopes and the final re-encode would not
// reproduce the original frame.
func TestReadFramesIntoPooledNoAlias(t *testing.T) {
	envs := batchEnvs(t)
	frameA, err := EncodeBatch(envs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ReadFramesInto(bytes.NewReader(frameA), GetEnvs())
	if err != nil || !reflect.DeepEqual(got, envs) {
		t.Fatalf("ReadFramesInto: %v (err %v)", got, err)
	}
	// Retain by-value copies — they share whatever string storage the
	// decode produced — then recycle the slab.
	kept := append([]Envelope(nil), got...)
	PutEnvs(got)
	// Churn both pools with frames full of different bytes.
	noise := Envelope{
		From: types.Writer(2), To: types.Server(1),
		Key: "noise/key-aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa", OpID: 1, Round: 1,
		Payload: Update{Val: valPtr(types.Value{Tag: types.Tag{TS: 1, WID: types.Writer(2)}, Data: "AAAAAAAAAAAAAAAAAAAAAAAAAAAAAAAA"})},
	}
	for i := 0; i < 32; i++ {
		var s bytes.Buffer
		if err := WriteBatch(&s, []Envelope{noise, noise, noise}); err != nil {
			t.Fatal(err)
		}
		g, err := ReadFramesInto(&s, GetEnvs())
		if err != nil {
			t.Fatal(err)
		}
		PutEnvs(g)
	}
	reenc, err := EncodeBatch(kept)
	if err != nil || !bytes.Equal(reenc, frameA) {
		t.Fatalf("retained envelopes corrupted by pool churn (err %v):\n want %x\n got  %x", err, frameA, reenc)
	}
}

// TestPutEnvsClears checks the pooling contract that keeps recycled
// slabs from pinning dead payloads: every element is zeroed before the
// slab enters the pool. The test deliberately peeks through a retained
// view of the array — safe here because nothing else touches the pool
// concurrently.
func TestPutEnvsClears(t *testing.T) {
	s := append(GetEnvs(), batchEnvs(t)...)
	view := s[:len(s):len(s)]
	PutEnvs(s)
	for i := range view {
		if !reflect.DeepEqual(view[i], Envelope{}) {
			t.Fatalf("element %d not cleared by PutEnvs: %v", i, view[i])
		}
	}
	// Oversize slabs are dropped, not pooled (can't observe the pool
	// directly; just ensure the call doesn't panic on the boundary).
	PutEnvs(make([]Envelope, maxPooledEnvs+1))
}

func TestReadFramesBothKinds(t *testing.T) {
	envs := batchEnvs(t)
	single, err := AppendEnvelope(nil, envs[0])
	if err != nil {
		t.Fatal(err)
	}
	stream := bytes.NewBuffer(single)
	if err := WriteBatch(stream, envs); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrames(stream)
	if err != nil || len(got) != 1 || !reflect.DeepEqual(got[0], envs[0]) {
		t.Fatalf("single frame: %v %v", got, err)
	}
	got, err = ReadFrames(stream)
	if err != nil || !reflect.DeepEqual(got, envs) {
		t.Fatalf("batch frame: %v %v", got, err)
	}
	if _, err := ReadFrames(stream); err == nil {
		t.Fatal("ReadFrames on empty stream should fail")
	}
}
