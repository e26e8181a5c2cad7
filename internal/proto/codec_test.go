package proto

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"

	"fastreg/internal/types"
)

func sampleEnvelopes() []Envelope {
	v1 := types.Value{Tag: types.Tag{TS: 1, WID: types.Writer(1)}, Data: "alpha"}
	v2 := types.Value{Tag: types.Tag{TS: 2, WID: types.Writer(2)}, Data: "beta"}
	return []Envelope{
		{From: types.Writer(1), To: types.Server(1), OpID: 1, Round: 1, Payload: Query{}},
		{From: types.Server(1), To: types.Writer(1), OpID: 1, Round: 1, IsReply: true, Payload: QueryAck{Val: &v1}},
		{From: types.Writer(1), To: types.Server(3), OpID: 1, Round: 2, Payload: Update{Val: &v2}},
		{From: types.Server(3), To: types.Writer(1), OpID: 1, Round: 2, IsReply: true, Payload: UpdateAck{}},
		{From: types.Reader(2), To: types.Server(2), OpID: 9, Round: 1, Payload: FastRead{ValQueue: []types.Value{v1, v2, types.InitialValue()}}},
		{From: types.Server(2), To: types.Reader(2), OpID: 9, Round: 1, IsReply: true, Payload: FastReadAck{Vector: []VectorEntry{
			{Val: v1, Updated: []types.ProcID{types.Writer(1), types.Reader(2)}},
			{Val: v2, Updated: nil},
		}, Floor: v1.Tag}},
		{From: types.Reader(1), To: types.Server(1), OpID: 0, Round: 1, Payload: FastRead{}},
		{From: types.Server(1), To: types.Reader(1), OpID: 0, Round: 1, IsReply: true, Payload: FastReadAck{}},
		{From: types.Writer(2), To: types.Server(4), Key: "users:alice", OpID: 7, Round: 1, Payload: Query{}},
		{From: types.Server(4), To: types.Writer(2), Key: "users:alice", OpID: 7, Round: 2, IsReply: true, Payload: UpdateAck{}},
		{From: types.Writer(2), To: types.Server(2), Key: "k", OpID: 8, Round: 1, Payload: TagQuery{}},
		{From: types.Server(2), To: types.Writer(2), Key: "k", OpID: 8, Round: 1, IsReply: true, Payload: TagAck{Tag: &v2.Tag}},
	}
}

// envEqual compares envelopes treating nil and empty slices as equal, since
// the wire format cannot distinguish them.
func envEqual(a, b Envelope) bool {
	norm := func(e *Envelope) {
		switch m := e.Payload.(type) {
		case FastRead:
			if len(m.ValQueue) == 0 {
				m.ValQueue = nil
				e.Payload = m
			}
		case FastReadAck:
			if len(m.Vector) == 0 {
				m.Vector = nil
				e.Payload = m
			} else {
				for i := range m.Vector {
					if len(m.Vector[i].Updated) == 0 {
						m.Vector[i].Updated = nil
					}
				}
				e.Payload = m
			}
		}
	}
	norm(&a)
	norm(&b)
	return reflect.DeepEqual(a, b)
}

func TestCodecRoundTrip(t *testing.T) {
	for i, e := range sampleEnvelopes() {
		b, err := Encode(e)
		if err != nil {
			t.Fatalf("case %d: Encode: %v", i, err)
		}
		got, n, err := Decode(b)
		if err != nil {
			t.Fatalf("case %d: Decode: %v", i, err)
		}
		if n != len(b) {
			t.Fatalf("case %d: consumed %d of %d bytes", i, n, len(b))
		}
		if !envEqual(got, e) {
			t.Fatalf("case %d: round trip mismatch\n got %+v\nwant %+v", i, got, e)
		}
	}
}

func TestCodecStream(t *testing.T) {
	var stream []byte
	envs := sampleEnvelopes()
	for _, e := range envs {
		var err error
		if stream, err = AppendEnvelope(stream, e); err != nil {
			t.Fatalf("AppendEnvelope: %v", err)
		}
	}
	buf := bytes.NewBuffer(stream)
	for i := range envs {
		got, err := ReadFrames(buf)
		if err != nil {
			t.Fatalf("ReadFrames %d: %v", i, err)
		}
		if len(got) != 1 || !envEqual(got[0], envs[i]) {
			t.Fatalf("frame %d mismatch: got %+v want %+v", i, got, envs[i])
		}
	}
	if buf.Len() != 0 {
		t.Fatalf("%d trailing bytes after reading all frames", buf.Len())
	}
}

func TestDecodeTruncated(t *testing.T) {
	b, err := Encode(sampleEnvelopes()[5])
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(b); n++ {
		if _, _, err := Decode(b[:n]); err == nil {
			t.Fatalf("Decode of %d/%d bytes succeeded", n, len(b))
		}
	}
}

func TestDecodeCorruptKind(t *testing.T) {
	b, err := Encode(Envelope{From: types.Writer(1), To: types.Server(1), Payload: Query{}})
	if err != nil {
		t.Fatal(err)
	}
	// Kind byte is the last byte of a Query frame.
	b[len(b)-1] = 0xFF
	if _, _, err := Decode(b); !errors.Is(err, ErrBadKind) {
		t.Fatalf("err = %v, want ErrBadKind", err)
	}
}

// TestTagAckFrame: a TagAck is its 13-byte tag after the kind byte, no
// value payload; Encode refuses one without a tag, and every cut of its
// frame short of the whole decodes to ErrTruncated.
func TestTagAckFrame(t *testing.T) {
	tag := types.Tag{TS: 1 << 40, WID: types.Writer(3)}
	env := Envelope{From: types.Server(1), To: types.Writer(3), OpID: 5, Round: 1, IsReply: true, Payload: TagAck{Tag: &tag}}
	b, err := Encode(env)
	if err != nil {
		t.Fatal(err)
	}
	q, err := Encode(Envelope{From: types.Server(1), To: types.Writer(3), OpID: 5, Round: 1, IsReply: true, Payload: TagQuery{}})
	if err != nil {
		t.Fatal(err)
	}
	if len(b)-len(q) != 13 {
		t.Fatalf("a TagAck frame is %d bytes over an empty one, want the 13-byte tag", len(b)-len(q))
	}
	if _, err := Encode(Envelope{From: types.Server(1), To: types.Writer(3), Payload: TagAck{}}); !errors.Is(err, ErrBadKind) {
		t.Fatalf("Encode of a TagAck without a tag: err %v, want ErrBadKind", err)
	}
	for n := len(q); n < len(b); n++ {
		short := slices.Clone(b[:n])
		binary.BigEndian.PutUint32(short, uint32(n-4))
		if _, _, err := Decode(short); !errors.Is(err, ErrTruncated) {
			t.Fatalf("TagAck cut to %d of %d bytes: err %v, want ErrTruncated", n, len(b), err)
		}
	}
}

func TestEncodeNilPayload(t *testing.T) {
	if _, err := Encode(Envelope{}); !errors.Is(err, ErrBadKind) {
		t.Fatalf("err = %v, want ErrBadKind", err)
	}
}

func TestDecodeTrailingGarbage(t *testing.T) {
	b, err := Encode(Envelope{From: types.Writer(1), To: types.Server(1), Payload: UpdateAck{}})
	if err != nil {
		t.Fatal(err)
	}
	// Grow the body by one byte and fix the length header.
	b = append(b, 0x00)
	b[3]++
	if _, _, err := Decode(b); err == nil {
		t.Fatal("Decode accepted a frame with trailing bytes")
	}
}

// valPtr returns a pointer to a copy of v, for QueryAck and Update literals.
func valPtr(v types.Value) *types.Value { return &v }

func randValue(r *rand.Rand) types.Value {
	data := make([]byte, r.Intn(12))
	for i := range data {
		data[i] = byte('a' + r.Intn(26))
	}
	return types.Value{
		Tag:  types.Tag{TS: int64(r.Intn(1000)), WID: types.Writer(1 + r.Intn(5))},
		Data: string(data),
	}
}

func randEnvelope(r *rand.Rand) Envelope {
	keys := []string{"", "k", "users:alice", "config/flags"}
	e := Envelope{
		From:    types.Reader(1 + r.Intn(5)),
		To:      types.Server(1 + r.Intn(5)),
		Key:     keys[r.Intn(len(keys))],
		OpID:    r.Uint64(),
		Round:   uint8(1 + r.Intn(2)),
		IsReply: r.Intn(2) == 0,
	}
	switch r.Intn(8) {
	case 6:
		e.Payload = TagQuery{}
	case 7:
		tag := randValue(r).Tag
		e.Payload = TagAck{Tag: &tag}
	case 0:
		e.Payload = Query{}
	case 1:
		e.Payload = QueryAck{Val: valPtr(randValue(r))}
	case 2:
		e.Payload = Update{Val: valPtr(randValue(r))}
	case 3:
		e.Payload = UpdateAck{}
	case 4:
		m := FastRead{}
		for i := 0; i < r.Intn(5); i++ {
			m.ValQueue = append(m.ValQueue, randValue(r))
		}
		e.Payload = m
	default:
		m := FastReadAck{}
		if r.Intn(2) == 0 {
			m.Floor = randValue(r).Tag
		}
		for i := 0; i < r.Intn(4); i++ {
			ent := VectorEntry{Val: randValue(r)}
			for j := 0; j < r.Intn(4); j++ {
				ent.Updated = append(ent.Updated, types.Reader(1+r.Intn(4)))
			}
			m.Vector = append(m.Vector, ent)
		}
		e.Payload = m
	}
	return e
}

// Property: Encode∘Decode is the identity on random envelopes.
func TestCodecRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := randEnvelope(r)
		b, err := Encode(e)
		if err != nil {
			return false
		}
		got, n, err := Decode(b)
		return err == nil && n == len(b) && envEqual(got, e)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: decoding random bytes never panics (errors are fine).
func TestDecodeFuzzNoPanic(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for i := 0; i < 2000; i++ {
		b := make([]byte, r.Intn(64))
		r.Read(b)
		Decode(b) // must not panic
	}
}
