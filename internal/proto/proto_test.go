package proto

import (
	"strings"
	"testing"

	"fastreg/internal/types"
)

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		KindQuery:       "QUERY",
		KindQueryAck:    "READACK",
		KindUpdate:      "WRITE",
		KindUpdateAck:   "WRITEACK",
		KindFastRead:    "READ",
		KindFastReadAck: "READACK*",
		KindInvalid:     "INVALID",
	}
	for k, want := range cases {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", k, got, want)
		}
	}
}

func TestMessageKinds(t *testing.T) {
	cases := []struct {
		m    Message
		want Kind
	}{
		{Query{}, KindQuery},
		{QueryAck{}, KindQueryAck},
		{Update{}, KindUpdate},
		{UpdateAck{}, KindUpdateAck},
		{&FastRead{}, KindFastRead},
		{FastReadAck{}, KindFastReadAck},
	}
	for _, c := range cases {
		if got := c.m.Kind(); got != c.want {
			t.Errorf("%T.Kind() = %v, want %v", c.m, got, c.want)
		}
		if c.m.String() == "" {
			t.Errorf("%T.String() empty", c.m)
		}
	}
}

func TestNormalizeUpdated(t *testing.T) {
	in := []types.ProcID{types.Writer(2), types.Reader(1), types.Writer(2), types.Reader(1), types.Writer(1)}
	out := NormalizeUpdated(in)
	want := []types.ProcID{types.Reader(1), types.Writer(1), types.Writer(2)}
	if len(out) != len(want) {
		t.Fatalf("len = %d, want %d", len(out), len(want))
	}
	for i := range want {
		if out[i] != want[i] {
			t.Errorf("out[%d] = %v, want %v", i, out[i], want[i])
		}
	}
}

func TestNormalizeUpdatedEmpty(t *testing.T) {
	if got := NormalizeUpdated(nil); len(got) != 0 {
		t.Errorf("NormalizeUpdated(nil) = %v", got)
	}
}

func TestVectorEntryCloneIsDeep(t *testing.T) {
	e := VectorEntry{
		Val:     types.Value{Tag: types.Tag{TS: 1, WID: types.Writer(1)}, Data: "v"},
		Updated: []types.ProcID{types.Reader(1)},
	}
	c := e.Clone()
	c.Updated[0] = types.Reader(9)
	if e.Updated[0] != types.Reader(1) {
		t.Error("Clone must not alias the updated slice")
	}
}

func TestVectorEntryHasUpdated(t *testing.T) {
	e := VectorEntry{Updated: []types.ProcID{types.Reader(1), types.Writer(2)}}
	if !e.HasUpdated(types.Reader(1)) || !e.HasUpdated(types.Writer(2)) {
		t.Error("HasUpdated missed a member")
	}
	if e.HasUpdated(types.Reader(2)) {
		t.Error("HasUpdated false positive")
	}
}

func TestFastReadAckEntryAndValues(t *testing.T) {
	v1 := types.Value{Tag: types.Tag{TS: 2, WID: types.Writer(1)}, Data: "b"}
	v2 := types.Value{Tag: types.Tag{TS: 1, WID: types.Writer(2)}, Data: "a"}
	ack := FastReadAck{Vector: []VectorEntry{{Val: v1}, {Val: v2}}}
	if e, ok := ack.Entry(v2); !ok || e.Val != v2 {
		t.Error("Entry lookup failed")
	}
	if _, ok := ack.Entry(types.InitialValue()); ok {
		t.Error("Entry found a value not present")
	}
	vs := ack.Values()
	if len(vs) != 2 || !vs[0].Less(vs[1]) {
		t.Errorf("Values not in tag order: %v", vs)
	}
}

func TestEnvelopeString(t *testing.T) {
	e := Envelope{From: types.Reader(1), To: types.Server(2), OpID: 7, Round: 2, Payload: Query{}}
	s := e.String()
	for _, frag := range []string{"r1", "s2", "op7.2", "QUERY"} {
		if !strings.Contains(s, frag) {
			t.Errorf("envelope string %q missing %q", s, frag)
		}
	}
	e.IsReply = true
	if !strings.Contains(e.String(), "⇠") {
		t.Error("reply direction marker missing")
	}
}
