package opkit

import (
	"slices"
	"testing"

	"fastreg/internal/proto"
	"fastreg/internal/types"
)

// ptr returns a pointer to a copy of v, for QueryAck and Update literals.
func ptr(v types.Value) *types.Value { return &v }

func val(ts int64, w int, data string) types.Value {
	return types.Value{Tag: types.Tag{TS: ts, WID: types.Writer(w)}, Data: data}
}

func TestStoreServerInitial(t *testing.T) {
	s := NewStoreServer(types.Server(1))
	if s.ID() != types.Server(1) {
		t.Errorf("ID = %v", s.ID())
	}
	ack := s.Handle(types.Reader(1), proto.Query{})
	qa, ok := ack.(proto.QueryAck)
	if !ok || !qa.Val.IsInitial() {
		t.Errorf("initial query ack = %v", ack)
	}
}

func TestStoreServerUpdateMonotone(t *testing.T) {
	s := NewStoreServer(types.Server(1))
	v1 := val(2, 1, "new")
	if _, ok := s.Handle(types.Writer(1), proto.Update{Val: &v1}).(proto.UpdateAck); !ok {
		t.Fatal("update not acked")
	}
	if s.CurrentValue() != v1 {
		t.Fatalf("cur = %v, want %v", s.CurrentValue(), v1)
	}
	// A stale update must be acked but ignored.
	stale := val(1, 2, "old")
	if _, ok := s.Handle(types.Writer(2), proto.Update{Val: &stale}).(proto.UpdateAck); !ok {
		t.Fatal("stale update not acked")
	}
	if s.CurrentValue() != v1 {
		t.Fatalf("stale update changed cur to %v", s.CurrentValue())
	}
	// Equal ts, higher writer ID wins.
	tie := val(2, 2, "tie")
	s.Handle(types.Writer(2), proto.Update{Val: &tie})
	if s.CurrentValue() != tie {
		t.Fatalf("cur = %v, want %v", s.CurrentValue(), tie)
	}
}

func TestStoreServerUnknownMessage(t *testing.T) {
	s := NewStoreServer(types.Server(1))
	if got := s.Handle(types.Reader(1), proto.FastRead{}); got != nil {
		t.Errorf("unknown message reply = %v, want nil", got)
	}
}

func TestVectorServerInitial(t *testing.T) {
	s := NewVectorServer(types.Server(2), 2)
	if s.ID() != types.Server(2) {
		t.Errorf("ID = %v", s.ID())
	}
	if !s.CurrentValue().IsInitial() {
		t.Errorf("cur = %v", s.CurrentValue())
	}
	vec := s.VectorSnapshot()
	if len(vec) != 1 || !vec[0].Val.IsInitial() || len(vec[0].Updated) != 0 {
		t.Errorf("initial vector = %v", vec)
	}
}

func TestVectorServerWritePath(t *testing.T) {
	s := NewVectorServer(types.Server(1), 2)
	// Writer's query round.
	if qa, ok := s.Handle(types.Writer(1), proto.Query{}).(proto.QueryAck); !ok || !qa.Val.IsInitial() {
		t.Fatalf("query ack = %v", qa)
	}
	// Writer's update round.
	v := val(1, 1, "a")
	if _, ok := s.Handle(types.Writer(1), proto.Update{Val: &v}).(proto.UpdateAck); !ok {
		t.Fatal("update not acked")
	}
	if s.CurrentValue() != v {
		t.Fatalf("cur = %v", s.CurrentValue())
	}
	vec := s.VectorSnapshot()
	if len(vec) != 2 {
		t.Fatalf("vector size = %d, want 2", len(vec))
	}
	// Entries are sorted by tag: initial first, then v with updated {w1}.
	if vec[1].Val != v || len(vec[1].Updated) != 1 || vec[1].Updated[0] != types.Writer(1) {
		t.Errorf("vector entry = %v", vec[1])
	}
}

func TestVectorServerFastReadMergesQueueAndRecordsReader(t *testing.T) {
	s := NewVectorServer(types.Server(1), 2)
	v := val(3, 2, "x")
	// Reader disseminates v via its valQueue; the server must learn it.
	ackMsg := s.Handle(types.Reader(1), proto.FastRead{ValQueue: []types.Value{types.InitialValue(), v}})
	ack, ok := ackMsg.(proto.FastReadAck)
	if !ok {
		t.Fatalf("reply = %T", ackMsg)
	}
	if s.CurrentValue() != v {
		t.Fatalf("cur = %v, want %v (queue merge must raise vali)", s.CurrentValue(), v)
	}
	ent, ok := ack.Entry(v)
	if !ok {
		t.Fatal("reply missing disseminated value")
	}
	if !ent.HasUpdated(types.Reader(1)) {
		t.Error("reader not recorded on disseminated value")
	}
	// The reader must also be recorded on values it merely witnesses.
	ini, ok := ack.Entry(types.InitialValue())
	if !ok || !ini.HasUpdated(types.Reader(1)) {
		t.Error("reader not recorded on witnessed initial value")
	}
}

func TestVectorServerReaderJoinsAllEntriesOnReply(t *testing.T) {
	s := NewVectorServer(types.Server(1), 2)
	v1, v2 := val(1, 1, "a"), val(2, 2, "b")
	s.Handle(types.Writer(1), proto.Update{Val: &v1})
	s.Handle(types.Writer(2), proto.Update{Val: &v2})
	ack := s.Handle(types.Reader(2), proto.FastRead{ValQueue: nil}).(proto.FastReadAck)
	for _, want := range []types.Value{v1, v2} {
		ent, ok := ack.Entry(want)
		if !ok {
			t.Fatalf("missing entry for %v", want)
		}
		if !ent.HasUpdated(types.Reader(2)) {
			t.Errorf("reader not in updated set of %v (Lemma 8 requirement)", want)
		}
	}
}

// A rebuild that adds the reader to entries whose old updated sets are
// equal gives them one new set, not one each: with values from two writers
// preloaded, a reader's first read makes two sets for four entries.
func TestVectorServerRebuildSharesEqualSets(t *testing.T) {
	s := NewVectorServer(types.Server(1), 2)
	for i := 1; i <= 4; i++ {
		s.Handle(types.Writer(1+i%2), proto.Update{Val: ptr(val(int64(i), 1+i%2, "v"))})
	}
	ack := s.Handle(types.Reader(1), proto.FastRead{ValQueue: []types.Value{types.InitialValue()}}).(proto.FastReadAck)
	if len(ack.Vector) != 5 {
		t.Fatalf("vector = %v, want five entries", ack.Vector)
	}
	sets := make(map[*types.ProcID][]types.ProcID)
	for _, ent := range ack.Vector[1:] {
		w := types.Writer(1 + int(ent.Val.Tag.TS)%2)
		if want := proto.NormalizeUpdated([]types.ProcID{types.Reader(1), w}); !slices.Equal(ent.Updated, want) {
			t.Fatalf("entry %v, want updated set %v", ent, want)
		}
		sets[&ent.Updated[0]] = ent.Updated
	}
	if len(sets) != 2 {
		t.Errorf("four entries with two distinct old sets got %d new sets, want 2", len(sets))
	}
}

func TestVectorServerRepeatedUpdateAccumulates(t *testing.T) {
	s := NewVectorServer(types.Server(1), 2)
	v := val(1, 1, "a")
	s.Handle(types.Writer(1), proto.Update{Val: &v})
	s.Handle(types.Reader(1), proto.FastRead{ValQueue: []types.Value{v}})
	s.Handle(types.Reader(2), proto.FastRead{ValQueue: []types.Value{v}})
	ent, _ := proto.FastReadAck{Vector: s.VectorSnapshot()}.Entry(v)
	for _, p := range []types.ProcID{types.Writer(1), types.Reader(1), types.Reader(2)} {
		if !ent.HasUpdated(p) {
			t.Errorf("updated set missing %v: %v", p, ent)
		}
	}
}

func TestVectorServerUnknownMessage(t *testing.T) {
	s := NewVectorServer(types.Server(1), 2)
	if got := s.Handle(types.Reader(1), proto.FastReadAck{}); got != nil {
		t.Errorf("unknown message reply = %v, want nil", got)
	}
}

func TestVectorServerSnapshotIsUnaliased(t *testing.T) {
	s := NewVectorServer(types.Server(1), 2)
	v := val(1, 1, "a")
	s.Handle(types.Writer(1), proto.Update{Val: &v})
	snap := s.VectorSnapshot()
	for i := range snap {
		for j := range snap[i].Updated {
			snap[i].Updated[j] = types.Reader(99)
		}
	}
	ent, _ := proto.FastReadAck{Vector: s.VectorSnapshot()}.Entry(v)
	if ent.HasUpdated(types.Reader(99)) {
		t.Error("mutating a snapshot leaked into server state")
	}
}
