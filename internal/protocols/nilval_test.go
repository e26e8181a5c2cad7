package protocols

import (
	"errors"
	"testing"

	"fastreg/internal/byzantine"
	"fastreg/internal/opkit"
	"fastreg/internal/proto"
	"fastreg/internal/quorum"
	"fastreg/internal/register"
	"fastreg/internal/types"
)

// TestNilValueRejected is the table of what a QueryAck, a TagAck or an
// Update without a value (or tag) meets: Encode refuses it, every
// operation that takes a QueryAck or a TagAck fails with a bad reply, and
// every server drops the Update — no reply, no change of state.
func TestNilValueRejected(t *testing.T) {
	for _, m := range []proto.Message{proto.QueryAck{}, proto.TagAck{}, proto.Update{}} {
		if _, err := proto.Encode(proto.Envelope{From: types.Server(1), To: types.Writer(1), Payload: m}); !errors.Is(err, proto.ErrBadKind) {
			t.Errorf("Encode of %T with a nil pointer: err %v, want ErrBadKind", m, err)
		}
	}

	cfg := quorum.Config{S: 3, T: 1, W: 2, R: 2}
	good := types.Value{Tag: types.Tag{TS: 3, WID: types.Writer(2)}, Data: "x"}
	// Quorums whose second reply has no value, by the request they answer.
	replies := map[proto.Kind][]register.Reply{
		proto.KindQuery: {
			{From: types.Server(1), Msg: proto.QueryAck{Val: &good}},
			{From: types.Server(2), Msg: proto.QueryAck{}},
		},
		proto.KindTagQuery: {
			{From: types.Server(1), Msg: proto.TagAck{Tag: &good.Tag}},
			{From: types.Server(2), Msg: proto.TagAck{}},
		},
	}
	type opCase struct {
		name string
		op   register.Operation
	}
	ops := []opCase{
		{"QueryThenUpdateWrite", opkit.NewQueryThenUpdateWrite(types.Writer(1), "v", 2, new(int64))},
		{"ReadWriteBack", opkit.NewReadWriteBack(types.Reader(1), 2)},
		{"ReadNoWriteBack", opkit.NewReadNoWriteBack(types.Reader(1), 2)},
	}
	servers := map[string]register.ServerLogic{}
	for _, name := range Names() {
		p, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		ops = append(ops,
			opCase{name + " write", p.NewWriter(types.Writer(1), cfg).WriteOp("v")},
			opCase{name + " read", p.NewReader(types.Reader(1), cfg).ReadOp()})
		servers[name] = p.NewServer(types.Server(1), cfg)
		servers[name+" liar"] = byzantine.Liars(p, 1).NewServer(types.Server(1), cfg)
	}

	starts := map[proto.Kind]int{}
	for _, c := range ops {
		kind := c.op.Begin().Payload.Kind()
		reps, ok := replies[kind]
		if !ok {
			continue // its first round collects no QueryAck or TagAck
		}
		starts[kind]++
		if _, _, _, err := c.op.Next(reps); !errors.Is(err, register.ErrProtocol) {
			t.Errorf("%s: Next over a %v without a value: err %v, want a bad reply", c.name, reps[1].Msg.Kind(), err)
		}
	}
	if starts[proto.KindQuery] != 5 || starts[proto.KindTagQuery] != 3 {
		t.Fatalf("%d operations start with a Query and %d with a TagQuery, want 5 and 3", starts[proto.KindQuery], starts[proto.KindTagQuery])
	}

	for name, s := range servers {
		before := s.CurrentValue()
		if reply := s.Handle(types.Writer(1), proto.Update{}); reply != nil {
			t.Errorf("%s: an Update without a value got reply %v, want none", name, reply)
		}
		if after := s.CurrentValue(); after != before {
			t.Errorf("%s: an Update without a value moved the value %v → %v", name, before, after)
		}
	}
}
