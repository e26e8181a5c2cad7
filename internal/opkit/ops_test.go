package opkit

import (
	"testing"

	"fastreg/internal/proto"
	"fastreg/internal/register"
	"fastreg/internal/types"
)

func storeServers(n int) []register.ServerLogic {
	out := make([]register.ServerLogic, n)
	for i := range out {
		out[i] = NewStoreServer(types.Server(i + 1))
	}
	return out
}

func vectorServers(n int) []register.ServerLogic {
	out := make([]register.ServerLogic, n)
	for i := range out {
		out[i] = NewVectorServer(types.Server(i+1), 2)
	}
	return out
}

func TestQueryThenUpdateWriteBasics(t *testing.T) {
	servers := storeServers(3)
	op := NewQueryThenUpdateWrite(types.Writer(1), "a", 2, new(int64))
	if op.Kind() != types.OpWrite || op.Client() != types.Writer(1) {
		t.Fatal("op metadata wrong")
	}
	if op.Arg().Data != "a" {
		t.Fatalf("Arg = %v", op.Arg())
	}
	rounds, res, err := register.CountRounds(op, servers)
	if err != nil {
		t.Fatal(err)
	}
	if rounds != 2 {
		t.Errorf("write took %d rounds, want 2", rounds)
	}
	want := types.Value{Tag: types.Tag{TS: 1, WID: types.Writer(1)}, Data: "a"}
	if res != want {
		t.Errorf("result = %v, want %v", res, want)
	}
	for _, s := range servers {
		if s.CurrentValue() != want {
			t.Errorf("server %v holds %v", s.ID(), s.CurrentValue())
		}
	}
}

func TestSequentialWritersGetIncreasingTags(t *testing.T) {
	servers := storeServers(3)
	_, v1, err := register.CountRounds(NewQueryThenUpdateWrite(types.Writer(2), "x", 2, new(int64)), servers)
	if err != nil {
		t.Fatal(err)
	}
	_, v2, err := register.CountRounds(NewQueryThenUpdateWrite(types.Writer(1), "y", 2, new(int64)), servers)
	if err != nil {
		t.Fatal(err)
	}
	if !v1.Less(v2) {
		t.Errorf("sequential writes misordered: %v then %v", v1, v2)
	}
	if v2.Tag.TS != v1.Tag.TS+1 {
		t.Errorf("second write ts = %d, want %d", v2.Tag.TS, v1.Tag.TS+1)
	}
}

func TestDirectWriteOneRound(t *testing.T) {
	servers := storeServers(3)
	v := val(1, 1, "fast")
	op := NewDirectWrite(types.Writer(1), v, 2)
	if op.Arg() != v {
		t.Fatalf("Arg = %v", op.Arg())
	}
	rounds, res, err := register.CountRounds(op, servers)
	if err != nil {
		t.Fatal(err)
	}
	if rounds != 1 {
		t.Errorf("fast write took %d rounds, want 1", rounds)
	}
	if res != v {
		t.Errorf("result = %v", res)
	}
}

func TestReadWriteBack(t *testing.T) {
	servers := storeServers(3)
	v := val(5, 1, "v")
	// Only one server knows the value; the read must find it and propagate.
	servers[0].Handle(types.Writer(1), proto.Update{Val: &v})
	op := NewReadWriteBack(types.Reader(1), 3)
	if op.Kind() != types.OpRead || !op.Arg().IsInitial() {
		t.Fatal("op metadata wrong")
	}
	rounds, res, err := register.CountRounds(op, servers)
	if err != nil {
		t.Fatal(err)
	}
	if rounds != 2 {
		t.Errorf("read took %d rounds, want 2", rounds)
	}
	if res != v {
		t.Errorf("read returned %v, want %v", res, v)
	}
	for _, s := range servers {
		if s.CurrentValue() != v {
			t.Errorf("write-back did not reach %v (holds %v)", s.ID(), s.CurrentValue())
		}
	}
}

func TestReadNoWriteBackOneRound(t *testing.T) {
	servers := storeServers(3)
	v := val(5, 1, "v")
	servers[0].Handle(types.Writer(1), proto.Update{Val: &v})
	op := NewReadNoWriteBack(types.Reader(1), 3)
	rounds, res, err := register.CountRounds(op, servers)
	if err != nil {
		t.Fatal(err)
	}
	if rounds != 1 || res != v {
		t.Errorf("rounds=%d res=%v", rounds, res)
	}
	// No propagation: the other servers still hold the initial value.
	if !servers[1].CurrentValue().IsInitial() {
		t.Error("no-write-back read must not propagate")
	}
}

func TestFastReadReturnsWrittenValue(t *testing.T) {
	servers := vectorServers(5)
	cfg := AdmissibleConfig{S: 5, T: 1, MaxDegree: 3} // R=2: 2 < 5/1-2 boundary is 2<3 ✓
	_, v, err := register.CountRounds(NewQueryThenUpdateWrite(types.Writer(1), "hello", 4, new(int64)), servers)
	if err != nil {
		t.Fatal(err)
	}
	state := NewReaderState()
	op := NewFastReadOp(types.Reader(1), state, cfg, 4)
	if op.Kind() != types.OpRead {
		t.Fatal("kind wrong")
	}
	rounds, res, err := register.CountRounds(op, servers)
	if err != nil {
		t.Fatal(err)
	}
	if rounds != 1 {
		t.Errorf("fast read took %d rounds, want 1", rounds)
	}
	if res != v {
		t.Errorf("fast read returned %v, want %v", res, v)
	}
	// The reader's valQueue must now contain the value (line 22).
	found := false
	for _, q := range state.Queue() {
		if q == v {
			found = true
		}
	}
	if !found {
		t.Error("valQueue missing the read value")
	}
}

func TestFastReadSequenceMonotone(t *testing.T) {
	servers := vectorServers(5)
	cfg := AdmissibleConfig{S: 5, T: 1, MaxDegree: 3}
	state := NewReaderState()
	// Initial read returns the initial value.
	_, r0, err := register.CountRounds(NewFastReadOp(types.Reader(1), state, cfg, 4), servers)
	if err != nil {
		t.Fatal(err)
	}
	if !r0.IsInitial() {
		t.Errorf("first read = %v, want initial", r0)
	}
	var prev types.Value
	for i := 1; i <= 5; i++ {
		_, w, err := register.CountRounds(NewQueryThenUpdateWrite(types.Writer(1+i%2), "d", 4, new(int64)), servers)
		if err != nil {
			t.Fatal(err)
		}
		_, r, err := register.CountRounds(NewFastReadOp(types.Reader(1), state, cfg, 4), servers)
		if err != nil {
			t.Fatal(err)
		}
		if r != w {
			t.Fatalf("iteration %d: read %v after write %v", i, r, w)
		}
		if r.Less(prev) {
			t.Fatalf("reads went backwards: %v then %v", prev, r)
		}
		prev = r
	}
}

func TestReaderStateQueueSortedDeduped(t *testing.T) {
	s := NewReaderState()
	v1, v2 := val(2, 1, "b"), val(1, 1, "a")
	s.Merge(v1, v2, v1)
	q := s.Queue()
	if len(q) != 3 { // initial + two
		t.Fatalf("queue len = %d, want 3", len(q))
	}
	for i := 1; i < len(q); i++ {
		if q[i].Less(q[i-1]) {
			t.Fatal("queue not sorted")
		}
	}
}

func TestWriteBadReplyKinds(t *testing.T) {
	op := NewQueryThenUpdateWrite(types.Writer(1), "a", 1, new(int64))
	op.Begin()
	if _, _, _, err := op.Next([]register.Reply{{From: types.Server(1), Msg: proto.UpdateAck{}}}); err == nil {
		t.Error("query phase accepted an UpdateAck")
	}
	op2 := NewQueryThenUpdateWrite(types.Writer(1), "a", 1, new(int64))
	op2.Begin()
	next, _, _, err := op2.Next([]register.Reply{{From: types.Server(1), Msg: proto.TagAck{Tag: &types.Tag{}}}})
	if err != nil || next == nil {
		t.Fatalf("phase 1 failed: %v", err)
	}
	if _, _, _, err := op2.Next([]register.Reply{{From: types.Server(1), Msg: proto.TagAck{}}}); err == nil {
		t.Error("update phase accepted a TagAck")
	}
	op3 := NewQueryThenUpdateWrite(types.Writer(1), "a", 1, new(int64))
	op3.Begin()
	if _, _, _, err := op3.Next([]register.Reply{{From: types.Server(1), Msg: proto.QueryAck{Val: ptr(types.InitialValue())}}}); err == nil {
		t.Error("query phase accepted a QueryAck, which answers a read's Query")
	}
}

func TestReadBadReplyKinds(t *testing.T) {
	op := NewReadWriteBack(types.Reader(1), 1)
	op.Begin()
	if _, _, _, err := op.Next([]register.Reply{{From: types.Server(1), Msg: proto.UpdateAck{}}}); err == nil {
		t.Error("read query accepted an UpdateAck")
	}
	fr := NewFastReadOp(types.Reader(1), NewReaderState(), AdmissibleConfig{S: 1, T: 0, MaxDegree: 2}, 1)
	fr.Begin()
	if _, _, _, err := fr.Next([]register.Reply{{From: types.Server(1), Msg: proto.QueryAck{}}}); err == nil {
		t.Error("fast read accepted a QueryAck")
	}
	dw := NewDirectWrite(types.Writer(1), val(1, 1, "x"), 1)
	dw.Begin()
	if _, _, _, err := dw.Next([]register.Reply{{From: types.Server(1), Msg: proto.QueryAck{}}}); err == nil {
		t.Error("direct write accepted a QueryAck")
	}
	nb := NewReadNoWriteBack(types.Reader(1), 1)
	nb.Begin()
	if _, _, _, err := nb.Next([]register.Reply{{From: types.Server(1), Msg: proto.UpdateAck{}}}); err == nil {
		t.Error("no-write-back read accepted an UpdateAck")
	}
}

func TestWriteBackBadSecondRound(t *testing.T) {
	servers := storeServers(1)
	op := NewReadWriteBack(types.Reader(1), 1)
	r := op.Begin()
	reply := servers[0].Handle(op.Client(), r.Payload)
	next, _, _, err := op.Next([]register.Reply{{From: types.Server(1), Msg: reply}})
	if err != nil || next == nil {
		t.Fatalf("phase 1: %v", err)
	}
	if _, _, _, err := op.Next([]register.Reply{{From: types.Server(1), Msg: proto.QueryAck{}}}); err == nil {
		t.Error("write-back accepted a QueryAck")
	}
}
