package opkit

import (
	"fmt"
	"testing"
	"unsafe"

	"fastreg/internal/proto"
	"fastreg/internal/register"
	"fastreg/internal/types"
)

func cloneVector(vec []proto.VectorEntry) []proto.VectorEntry {
	out := make([]proto.VectorEntry, len(vec))
	for i, e := range vec {
		out[i] = e.Clone()
	}
	return out
}

func sameVector(a, b []proto.VectorEntry) bool {
	return fmt.Sprint(a) == fmt.Sprint(b)
}

// A reply is the replica's own vector, and an in-process backend hands the
// reader that very slice: nothing the replica does afterwards may show
// through it, neither a rebuild nor a cut of the dead prefix. Without
// readers the replica keeps all six values; with two, the second reader's
// valQueue raises the floor to (3,w1).
func TestVectorServerRepliesAreFrozen(t *testing.T) {
	for readers, want := range map[int]int{0: 6, 2: 3} {
		t.Run(fmt.Sprintf("R=%d", readers), func(t *testing.T) { repliesAreFrozen(t, readers, want) })
	}
}

func repliesAreFrozen(t *testing.T, readers, want int) {
	s := NewVectorServer(types.Server(1), readers)
	v1, v2, v3 := val(1, 1, "a"), val(2, 2, "b"), val(3, 1, "c")
	s.Handle(types.Writer(1), proto.Update{Val: &v1})
	s.Handle(types.Writer(2), proto.Update{Val: &v3})

	var replies, copies [][]proto.VectorEntry
	capture := func(m proto.Message) {
		vec := m.(proto.FastReadAck).Vector
		replies, copies = append(replies, vec), append(copies, cloneVector(vec))
	}
	capture(s.Handle(types.Reader(1), proto.FastRead{ValQueue: []types.Value{types.InitialValue()}}))
	capture(s.Handle(types.Reader(1), proto.FastRead{ValQueue: []types.Value{types.InitialValue(), v1, v3}}))
	// Other clients move the replica on: a value below the largest, a new
	// largest, a second reader joining every entry, a writer joining one.
	s.Handle(types.Writer(2), proto.Update{Val: &v2})
	capture(s.Handle(types.Reader(2), proto.FastRead{ValQueue: []types.Value{val(9, 2, "z"), v2}}))
	s.Handle(types.Writer(1), proto.Update{Val: &v3})
	capture(s.Handle(types.Reader(1), proto.FastRead{ValQueue: nil}))
	s.Handle(types.Writer(2), proto.Update{Val: ptr(val(10, 2, "y"))})

	for i := range replies {
		if !sameVector(replies[i], copies[i]) {
			t.Errorf("reply %d changed after it was sent:\n now %v\n was %v", i, replies[i], copies[i])
		}
		if n := len(replies[i]); cap(replies[i]) != n {
			t.Errorf("reply %d has spare capacity (len %d cap %d): an append would write into the replica's array", i, n, cap(replies[i]))
		}
	}
	if got := s.Handle(types.Reader(1), proto.FastRead{}).(proto.FastReadAck).Vector; len(got) != want {
		t.Fatalf("final vector has %d entries, want %d: %v", len(got), want, got)
	}
}

// The valQueue travels in the request as it is; a later merge builds a new
// queue and leaves the one in flight alone.
func TestReaderStateQueueIsFrozen(t *testing.T) {
	st := NewReaderState()
	st.Merge(val(2, 1, "b"), val(4, 1, "d"))
	q := st.Queue()
	was := append([]types.Value(nil), q...)
	st.Merge(val(1, 1, "a"), val(3, 1, "c"), val(5, 1, "e"))
	st.Merge(val(4, 1, "d"))
	for i := range q {
		if q[i] != was[i] {
			t.Fatalf("captured queue changed at %d: %v, was %v", i, q[i], was[i])
		}
	}
	if cap(q) != len(q) {
		t.Errorf("Queue() has spare capacity (len %d cap %d)", len(q), cap(q))
	}
	if got := st.Queue(); len(got) != 6 {
		t.Fatalf("queue = %v, want six values", got)
	}
	// Merging nothing new publishes nothing new.
	before := st.Queue()
	st.Merge(val(3, 1, "c"))
	if after := st.Queue(); &after[0] != &before[0] {
		t.Error("a merge without a new value rebuilt the queue")
	}
}

// steadyFleet returns five replicas holding six values each, and a reader
// that has read them: its next read changes nothing anywhere.
func steadyFleet(tb testing.TB) ([]register.ServerLogic, *FastReadOp) {
	tb.Helper()
	servers := vectorServers(5)
	for i := 1; i <= 5; i++ {
		if _, _, err := register.CountRounds(NewQueryThenUpdateWrite(types.Writer(1+i%2), "payload", 4, new(int64)), servers); err != nil {
			tb.Fatal(err)
		}
	}
	op := NewFastReadOp(types.Reader(1), NewReaderState(), AdmissibleConfig{S: 5, T: 1, MaxDegree: 3}, 4)
	if _, _, err := register.CountRounds(op, servers); err != nil {
		tb.Fatal(err)
	}
	return servers, op
}

// The steady-state read — reader on every entry, nothing new in its
// valQueue — allocates nothing on either side: a replica whose vector and
// floor did not change returns the very message it returned last, the
// reader sends the very request it sent last, and the search works on the
// stack.
func TestFastReadSteadyStateAllocs(t *testing.T) {
	servers, op := steadyFleet(t)
	req := op.Begin().Payload
	first := servers[0].Handle(op.Client(), req).(proto.FastReadAck)
	if n := len(first.Vector); n != 6 {
		t.Fatalf("replies carry %d entries, want 6", n)
	}
	var again proto.Message
	if got := testing.AllocsPerRun(200, func() { again = servers[0].Handle(op.Client(), req) }); got != 0 {
		t.Errorf("steady-state VectorServer.Handle(FastRead): %v allocs, want 0", got)
	}
	if ack := again.(proto.FastReadAck); &ack.Vector[0] != &first.Vector[0] || ack.Floor != first.Floor {
		t.Error("an unchanged replica boxed a new reply")
	}
	var next proto.Message
	if got := testing.AllocsPerRun(200, func() { next = op.Begin().Payload }); got != 0 {
		t.Errorf("FastReadOp.Begin on an unchanged valQueue: %v allocs, want 0", got)
	}
	if q := next.(proto.FastRead).ValQueue; &q[0] != &req.(proto.FastRead).ValQueue[0] {
		t.Error("an unchanged valQueue boxed a new request")
	}
	replies := make([]register.Reply, len(servers))
	for i, s := range servers {
		replies[i] = register.Reply{From: s.ID(), Msg: s.Handle(op.Client(), req)}
	}
	want := servers[0].CurrentValue()
	got := testing.AllocsPerRun(200, func() {
		op.Begin()
		if _, v, done, err := op.Next(replies); err != nil || !done || v != want {
			t.Fatalf("Next = %v, %v, %v; want %v", v, done, err, want)
		}
	})
	if got != 0 {
		t.Errorf("steady-state FastReadOp.Begin+Next over 5 six-entry replies: %v allocs, want 0", got)
	}
}

// What a read returns is the valQueue's copy of the value, whichever
// reply's copy the search picked: one reader's reads of one value share
// one payload, and a payload cut from a frame (proto.Decode) is not kept
// alive by the op's result.
func TestFastReadReturnsTheQueuesCopy(t *testing.T) {
	servers, op := steadyFleet(t)
	want := servers[0].CurrentValue()
	replies := make([]register.Reply, len(servers))
	for i, s := range servers {
		// Every reply carries its own copy of every payload, as decoded
		// frames do.
		vec := cloneVector(s.Handle(op.Client(), op.Begin().Payload).(proto.FastReadAck).Vector)
		for j := range vec {
			vec[j].Val.Data = string([]byte(vec[j].Val.Data))
		}
		replies[i] = register.Reply{From: s.ID(), Msg: proto.FastReadAck{Vector: vec}}
	}
	_, got, _, err := op.Next(replies)
	if err != nil || got != want {
		t.Fatalf("Next = %v, %v; want %v", got, err, want)
	}
	q := op.state.Queue()
	if top := q[len(q)-1]; unsafe.StringData(got.Data) != unsafe.StringData(top.Data) {
		t.Error("the value returned does not share the valQueue's payload")
	}
}
