package chains

import (
	"strings"
	"testing"

	"fastreg/internal/crucialinfo"
	"fastreg/internal/opkit"
	"fastreg/internal/quorum"
	"fastreg/internal/register"
	"fastreg/internal/types"
)

// storeFactory builds max-value servers for interpreter tests.
func storeFactory(id types.ProcID) register.ServerLogic { return opkit.NewStoreServer(id) }

func writeMaker(name string, w, ts int, data string, need int) OpMaker {
	return OpMaker{Name: name, Rounds: 1, Make: func() register.Operation {
		v := types.Value{Tag: types.Tag{TS: int64(ts), WID: types.Writer(w)}, Data: data}
		return opkit.NewDirectWrite(types.Writer(w), v, need)
	}}
}

func readMaker(name string, r, need int) OpMaker {
	return OpMaker{Name: name, Rounds: 2, Make: func() register.Operation {
		return opkit.NewReadWriteBack(types.Reader(r), need)
	}}
}

func TestSpecRunSequentialBaseline(t *testing.T) {
	ops := []OpMaker{
		writeMaker("W1", 1, 1, "a", 2),
		readMaker("R1", 1, 2),
	}
	spec := NewSpec("base", 3, ops, []RT{{Op: 0, Round: 1}, {Op: 1, Round: 1}, {Op: 1, Round: 2}})
	out, err := spec.Run(storeFactory)
	if err != nil {
		t.Fatal(err)
	}
	w := out.Result("W1")
	r := out.Result("R1")
	if !w.Done || !r.Done {
		t.Fatalf("not done: W1=%v R1=%v", w.Done, r.Done)
	}
	if r.Value.Data != "a" {
		t.Fatalf("R1 = %v", r.Value)
	}
	// All three servers replied to the skip-free read's first round.
	if len(r.Replies[1]) != 3 {
		t.Fatalf("R1 round-1 replies = %d", len(r.Replies[1]))
	}
	if len(out.History.Completed()) != 2 {
		t.Fatalf("history completed = %d", len(out.History.Completed()))
	}
}

func TestSpecSkipHidesServerFromClient(t *testing.T) {
	ops := []OpMaker{
		writeMaker("W1", 1, 1, "a", 2),
		readMaker("R1", 1, 2),
	}
	spec := NewSpec("skip", 3, ops, []RT{{Op: 0, Round: 1}, {Op: 1, Round: 1}, {Op: 1, Round: 2}})
	spec.SkipAt(3, RT{Op: 1, Round: 1})
	spec.SkipAt(3, RT{Op: 1, Round: 2})
	out, err := spec.Run(storeFactory)
	if err != nil {
		t.Fatal(err)
	}
	r := out.Result("R1")
	if len(r.Replies[1]) != 2 {
		t.Fatalf("skipped server still replied: %d replies", len(r.Replies[1]))
	}
	for _, srv := range r.From[1] {
		if srv == 3 {
			t.Fatal("reply from skipped server")
		}
	}
	if !spec.Skips(3, RT{Op: 1, Round: 1}) || spec.Skips(2, RT{Op: 1, Round: 1}) {
		t.Error("Skips bookkeeping wrong")
	}
}

func TestSpecSwapDelaysWriteBehindLaterOp(t *testing.T) {
	// Swap W1/W2 at server 1 while W1 needs all three acks: its ack from s1
	// only arrives after W2's, so W1 completes late and the two writes
	// overlap in the recorded history.
	ops := []OpMaker{
		writeMaker("W1", 1, 5, "first", 3), // higher ts, needs every server
		writeMaker("W2", 2, 1, "second", 2),
	}
	spec := NewSpec("swap", 3, ops, []RT{{Op: 0, Round: 1}, {Op: 1, Round: 1}})
	spec.Swap(1, RT{Op: 0, Round: 1}, RT{Op: 1, Round: 1})
	out, err := spec.Run(storeFactory)
	if err != nil {
		t.Fatal(err)
	}
	h := out.History.Completed()
	if len(h) != 2 {
		t.Fatalf("completed = %d", len(h))
	}
	var w1, w2 = h[0], h[1]
	if w1.Client != types.Writer(1) {
		w1, w2 = w2, w1
	}
	if w1.Precedes(w2) {
		t.Error("swapped W1 must not real-time-precede W2 (it completed late)")
	}
}

func TestSpecDeliverAfterReinserts(t *testing.T) {
	ops := []OpMaker{
		writeMaker("W1", 1, 1, "a", 2),
		readMaker("R1", 1, 2),
	}
	spec := NewSpec("da", 3, ops, []RT{{Op: 0, Round: 1}, {Op: 1, Round: 1}, {Op: 1, Round: 2}})
	spec.SkipAt(2, RT{Op: 1, Round: 2})
	if !spec.Skips(2, RT{Op: 1, Round: 2}) {
		t.Fatal("skip lost")
	}
	spec.DeliverAfter(2, RT{Op: 1, Round: 2}, RT{Op: 1, Round: 1})
	if spec.Skips(2, RT{Op: 1, Round: 2}) {
		t.Fatal("DeliverAfter did not reinsert")
	}
	if _, err := spec.Run(storeFactory); err != nil {
		t.Fatal(err)
	}
}

func TestSpecSwapPanicsOnSkipped(t *testing.T) {
	ops := []OpMaker{writeMaker("W1", 1, 1, "a", 1), writeMaker("W2", 2, 1, "b", 1)}
	spec := NewSpec("x", 2, ops, []RT{{Op: 0, Round: 1}, {Op: 1, Round: 1}})
	spec.SkipAt(1, RT{Op: 0, Round: 1})
	defer func() {
		if recover() == nil {
			t.Error("Swap of skipped round-trip must panic")
		}
	}()
	spec.Swap(1, RT{Op: 0, Round: 1}, RT{Op: 1, Round: 1})
}

func TestSpecRoundOutOfOrderRejected(t *testing.T) {
	ops := []OpMaker{readMaker("R1", 1, 2)}
	// Round 2 before round 1.
	spec := NewSpec("bad", 3, ops, []RT{{Op: 0, Round: 2}, {Op: 0, Round: 1}})
	if _, err := spec.Run(storeFactory); err == nil {
		t.Fatal("out-of-order rounds accepted")
	}
}

func TestSpecUnknownOpRejected(t *testing.T) {
	ops := []OpMaker{writeMaker("W1", 1, 1, "a", 1)}
	spec := NewSpec("bad", 2, ops, []RT{{Op: 5, Round: 1}})
	if _, err := spec.Run(storeFactory); err == nil {
		t.Fatal("unknown op accepted")
	}
}

func TestSpecArrivalOfUnknownOpRejected(t *testing.T) {
	ops := []OpMaker{writeMaker("W1", 1, 1, "a", 1)}
	spec := NewSpec("bad", 2, ops, []RT{{Op: 0, Round: 1}})
	spec.Arrival[2] = append(spec.Arrival[2], RT{Op: 3, Round: 1})
	if _, err := spec.Run(storeFactory); err == nil {
		t.Fatal("arrival of an unknown op accepted")
	}
}

func TestSpecDoubleBeginRejected(t *testing.T) {
	ops := []OpMaker{writeMaker("W1", 1, 1, "a", 1)}
	spec := NewSpec("bad", 2, ops, []RT{{Op: 0, Round: 1}, {Op: 0, Round: 1}})
	if _, err := spec.Run(storeFactory); err == nil {
		t.Fatal("double round-1 accepted")
	}
}

func TestSpecPendingWhenQuorumSkipped(t *testing.T) {
	// The write needs 2 replies but both servers skip it: it stays pending.
	ops := []OpMaker{writeMaker("W1", 1, 1, "a", 2)}
	spec := NewSpec("pend", 2, ops, []RT{{Op: 0, Round: 1}})
	spec.SkipAt(1, RT{Op: 0, Round: 1})
	spec.SkipAt(2, RT{Op: 0, Round: 1})
	out, err := spec.Run(storeFactory)
	if err != nil {
		t.Fatal(err)
	}
	if out.Result("W1").Done {
		t.Fatal("write completed without quorum")
	}
	if len(out.History.Pending()) != 1 {
		t.Fatalf("pending = %d", len(out.History.Pending()))
	}
}

func TestCloneIsDeep(t *testing.T) {
	ops := []OpMaker{writeMaker("W1", 1, 1, "a", 1), writeMaker("W2", 2, 1, "b", 1)}
	spec := NewSpec("orig", 2, ops, []RT{{Op: 0, Round: 1}, {Op: 1, Round: 1}})
	c := spec.Clone("copy")
	c.Swap(1, RT{Op: 0, Round: 1}, RT{Op: 1, Round: 1})
	if spec.Arrival[1][0] != (RT{Op: 0, Round: 1}) {
		t.Fatal("Clone aliased arrival orders")
	}
	if c.Name != "copy" {
		t.Fatal("name not set")
	}
}

func TestReadViewStableAndDistinguishing(t *testing.T) {
	f, err := NewFamily(crucialinfo.New(), 3)
	if err != nil {
		t.Fatal(err)
	}
	spec1 := NewSpec("a", 3, f.ops(false), []RT{rtW1, rtW2, rtR1[1], rtR1[2]})
	out1, err := spec1.Run(f.NewServerFn())
	if err != nil {
		t.Fatal(err)
	}
	out1b, err := spec1.Run(f.NewServerFn())
	if err != nil {
		t.Fatal(err)
	}
	if out1.ReadView("R1") != out1b.ReadView("R1") {
		t.Error("same spec produced different views (nondeterminism)")
	}
	spec2 := spec1.Clone("b")
	spec2.Swap(1, rtW1, rtW2)
	out2, err := spec2.Run(f.NewServerFn())
	if err != nil {
		t.Fatal(err)
	}
	if out1.ReadView("R1") == out2.ReadView("R1") {
		t.Error("views must differ when a server's arrival order differs")
	}
	if !strings.Contains(out1.ReadView("R1"), "round1[") {
		t.Errorf("view format: %q", out1.ReadView("R1"))
	}
}

func TestFamilyValidation(t *testing.T) {
	if _, err := NewFamily(crucialinfo.New(), 2); err == nil {
		t.Error("S=2 accepted")
	}
	cfg := quorum.Config{S: 3, T: 1, R: 2, W: 2}
	_ = cfg
	// A two-round-write protocol is not a fast-write candidate.
	if _, err := NewFamily(twoRoundWriteProtocol{}, 3); err == nil {
		t.Error("W2 protocol accepted by the W1R2 argument")
	}
}

// twoRoundWriteProtocol is a stub failing the family validation.
type twoRoundWriteProtocol struct{}

func (twoRoundWriteProtocol) Name() string                       { return "stub" }
func (twoRoundWriteProtocol) WriteRounds() int                   { return 2 }
func (twoRoundWriteProtocol) ReadRounds() int                    { return 2 }
func (twoRoundWriteProtocol) Implementable(q quorum.Config) bool { return false }
func (twoRoundWriteProtocol) NewServer(id types.ProcID, _ quorum.Config) register.ServerLogic {
	return opkit.NewStoreServer(id)
}
func (twoRoundWriteProtocol) NewWriter(id types.ProcID, _ quorum.Config) register.Writer { return nil }
func (twoRoundWriteProtocol) NewReader(id types.ProcID, _ quorum.Config) register.Reader { return nil }
