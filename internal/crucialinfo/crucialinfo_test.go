package crucialinfo

import (
	"testing"

	"fastreg/internal/proto"
	"fastreg/internal/quorum"
	"fastreg/internal/register"
	"fastreg/internal/types"
)

// ptr returns a pointer to a copy of v, for QueryAck and Update literals.
func ptr(v types.Value) *types.Value { return &v }

func val(ts int64, w int, data string) types.Value {
	return types.Value{Tag: types.Tag{TS: ts, WID: types.Writer(w)}, Data: data}
}

func TestLogServerAppendsEverything(t *testing.T) {
	s := NewLogServer(types.Server(1))
	v := val(1, 1, "a")
	if _, ok := s.Handle(types.Writer(1), proto.Update{Val: &v}).(proto.UpdateAck); !ok {
		t.Fatal("update not acked")
	}
	ack, ok := s.Handle(types.Reader(1), &proto.FastRead{}).(proto.LogAck)
	if !ok {
		t.Fatal("fast read must return the log")
	}
	// The log at reply time contains the write and the reader's own mark.
	if len(ack.Events) != 2 || ack.Events[0].Val != v || !ack.Events[1].IsReadMark() {
		t.Fatalf("log = %v", ack.Events)
	}
	// A Query does not append.
	q := s.Handle(types.Reader(2), proto.Query{}).(proto.LogAck)
	if len(q.Events) != 2 {
		t.Fatalf("query appended: %v", q.Events)
	}
	if s.CurrentValue() != v {
		t.Errorf("CurrentValue = %v", s.CurrentValue())
	}
	if s.Handle(types.Reader(1), proto.UpdateAck{}) != nil {
		t.Error("unknown message must get no reply")
	}
}

func TestLogSnapshotUnaliased(t *testing.T) {
	s := NewLogServer(types.Server(1))
	s.Handle(types.Writer(1), proto.Update{Val: ptr(val(1, 1, "a"))})
	log := s.Log()
	log[0] = proto.LogEvent{Client: types.Reader(9)}
	if s.Log()[0].Client != types.Writer(1) {
		t.Error("Log snapshot aliased server state")
	}
}

func TestCrucialExtraction(t *testing.T) {
	v1, v2 := val(1, 1, "1"), val(1, 2, "2")
	mk := func(vals ...types.Value) []proto.LogEvent {
		var out []proto.LogEvent
		for _, v := range vals {
			out = append(out, proto.LogEvent{Client: v.Tag.WID, Val: v})
		}
		return out
	}
	cases := []struct {
		log  []proto.LogEvent
		want string
	}{
		{mk(v1, v2), "12"},
		{mk(v2, v1), "21"},
		{mk(v1), "1"},
		{mk(v2), "2"},
		{nil, ""},
		{append([]proto.LogEvent{{Client: types.Reader(1)}}, mk(v1, v2)...), "12"}, // marks ignored
		{mk(v1, v2, v1), "12"}, // duplicates ignored
	}
	for i, c := range cases {
		if got := Crucial(c.log, v1, v2); got != c.want {
			t.Errorf("case %d: Crucial = %q, want %q", i, got, c.want)
		}
	}
}

func TestFlippingServerFlipsOnceOnTrigger(t *testing.T) {
	v1, v2 := val(1, 1, "1"), val(1, 2, "2")
	s := NewFlippingServer(types.Server(1), types.Reader(2))
	s.Handle(types.Writer(1), proto.Update{Val: &v1})
	s.Handle(types.Writer(2), proto.Update{Val: &v2})
	if got := Crucial(s.Log(), v1, v2); got != "12" {
		t.Fatalf("before trigger: %q", got)
	}
	// A non-trigger reader does not flip.
	s.Handle(types.Reader(1), &proto.FastRead{})
	if got := Crucial(s.Log(), v1, v2); got != "12" {
		t.Fatalf("non-trigger flipped: %q", got)
	}
	// The trigger flips, exactly once.
	s.Handle(types.Reader(2), &proto.FastRead{})
	if !s.Flipped() {
		t.Fatal("not flipped")
	}
	if got := Crucial(s.Log(), v1, v2); got != "21" {
		t.Fatalf("after trigger: %q", got)
	}
	s.Handle(types.Reader(2), &proto.FastRead{})
	if got := Crucial(s.Log(), v1, v2); got != "21" {
		t.Fatalf("second trigger changed info again: %q", got)
	}
}

func TestFlippingServerWithOneWriteIsNoop(t *testing.T) {
	v1 := val(1, 1, "1")
	s := NewFlippingServer(types.Server(1), types.Reader(2))
	s.Handle(types.Writer(1), proto.Update{Val: &v1})
	s.Handle(types.Reader(2), &proto.FastRead{})
	if got := Crucial(s.Log(), v1, val(1, 2, "2")); got != "1" {
		t.Fatalf("crucial = %q", got)
	}
}

func TestDecideMajority(t *testing.T) {
	v1, v2 := val(1, 1, "1"), val(1, 2, "2")
	log12 := proto.LogAck{Events: []proto.LogEvent{{Client: types.Writer(1), Val: v1}, {Client: types.Writer(2), Val: v2}}}
	log21 := proto.LogAck{Events: []proto.LogEvent{{Client: types.Writer(2), Val: v2}, {Client: types.Writer(1), Val: v1}}}
	empty := proto.LogAck{}
	cases := []struct {
		acks []proto.LogAck
		want types.Value
	}{
		{[]proto.LogAck{log12, log12, log12}, v2},
		{[]proto.LogAck{log21, log21, log21}, v1},
		{[]proto.LogAck{log21, log21, log12}, v1},
		{[]proto.LogAck{log12, log21}, v2}, // tie → larger tag
		{[]proto.LogAck{empty, empty}, types.InitialValue()},
		{nil, types.InitialValue()},
	}
	for i, c := range cases {
		if got := DecideMajority(c.acks); got != c.want {
			t.Errorf("case %d: DecideMajority = %v, want %v", i, got, c.want)
		}
	}
}

func newServers(p *Protocol, n int, cfg quorum.Config) []register.ServerLogic {
	out := make([]register.ServerLogic, n)
	for i := range out {
		out[i] = p.NewServer(types.Server(i+1), cfg)
	}
	return out
}

func TestProtocolSequentialRun(t *testing.T) {
	p := New()
	cfg := quorum.Config{S: 3, T: 1, R: 2, W: 2}
	if p.Implementable(cfg) {
		t.Fatal("the full-info strawman must not claim implementability")
	}
	if p.WriteRounds() != 1 || p.ReadRounds() != 2 {
		t.Fatal("round counts wrong")
	}
	servers := newServers(p, 3, cfg)
	w1 := p.NewWriter(types.Writer(1), cfg)
	rounds, v, err := register.CountRounds(w1.WriteOp("1"), servers)
	if err != nil || rounds != 1 {
		t.Fatalf("write: rounds=%d err=%v", rounds, err)
	}
	r1 := p.NewReader(types.Reader(1), cfg)
	rounds, got, err := register.CountRounds(r1.ReadOp(), servers)
	if err != nil || rounds != 2 {
		t.Fatalf("read: rounds=%d err=%v", rounds, err)
	}
	if got != v {
		t.Fatalf("read %v, wrote %v", got, v)
	}
}

func TestProtocolSequentialWritesLastWins(t *testing.T) {
	p := New()
	cfg := quorum.Config{S: 3, T: 1, R: 2, W: 2}
	servers := newServers(p, 3, cfg)
	if _, _, err := register.CountRounds(p.NewWriter(types.Writer(1), cfg).WriteOp("1"), servers); err != nil {
		t.Fatal(err)
	}
	_, v2, err := register.CountRounds(p.NewWriter(types.Writer(2), cfg).WriteOp("2"), servers)
	if err != nil {
		t.Fatal(err)
	}
	_, got, err := register.CountRounds(p.NewReader(types.Reader(1), cfg).ReadOp(), servers)
	if err != nil {
		t.Fatal(err)
	}
	if got != v2 {
		t.Fatalf("read %v after sequential writes, want %v", got, v2)
	}
}

func TestNewWithFlipsBuildsFlippingServers(t *testing.T) {
	p := NewWithFlips(types.Reader(2), []types.ProcID{types.Server(2)})
	cfg := quorum.Config{S: 3, T: 1, R: 2, W: 2}
	if _, ok := p.NewServer(types.Server(2), cfg).(*FlippingServer); !ok {
		t.Error("server 2 should flip")
	}
	if _, ok := p.NewServer(types.Server(1), cfg).(*LogServer); !ok {
		t.Error("server 1 should be plain")
	}
}

func TestReadBadReplies(t *testing.T) {
	p := New()
	cfg := quorum.Config{S: 3, T: 1, R: 2, W: 2}
	op := p.NewReader(types.Reader(1), cfg).ReadOp()
	op.Begin()
	if _, _, _, err := op.Next([]register.Reply{{From: types.Server(1), Msg: proto.UpdateAck{}}}); err == nil {
		t.Error("round 1 accepted an UpdateAck")
	}
	wop := p.NewWriter(types.Writer(1), cfg).WriteOp("x")
	wop.Begin()
	if _, _, _, err := wop.Next([]register.Reply{{From: types.Server(1), Msg: proto.Query{}}}); err == nil {
		t.Error("write accepted a Query")
	}
}
