package byzantine_test

import (
	"testing"

	"fastreg/internal/atomicity"
	"fastreg/internal/byzantine"
	"fastreg/internal/model"
	"fastreg/internal/proto"
	"fastreg/internal/protocols"
	"fastreg/internal/quorum"
	"fastreg/internal/register"
	"fastreg/internal/types"
	"fastreg/internal/workload"
)

// byzProtocol wraps a protocol so that server s1 lies.
type byzProtocol struct {
	register.Protocol
}

func (p byzProtocol) Name() string { return p.Protocol.Name() + "+byz" }

func (p byzProtocol) NewServer(id types.ProcID, cfg quorum.Config) register.ServerLogic {
	inner := p.Protocol.NewServer(id, cfg)
	if id == types.Server(1) {
		return byzantine.NewLyingServer(inner)
	}
	return inner
}

func feasible() quorum.Config { return quorum.Config{S: 5, T: 1, R: 2, W: 2} }

// TestLyingServerBreaksW2R2: one Byzantine server is enough to make the
// crash-tolerant two-round read return a fabricated value — its round 1
// takes the maximum over QueryAcks, and a single forged ack wins. The
// checker flags read-from-nowhere.
func TestLyingServerBreaksW2R2(t *testing.T) {
	p := byzProtocol{protocols.Must("W2R2")}
	broken := false
	for seed := int64(1); seed <= 10 && !broken; seed++ {
		sim := model.MustNew(feasible(), p, model.WithSeed(seed))
		h := workload.Run(sim, workload.Mix{WritesPerWriter: 3, ReadsPerReader: 3})
		res := atomicity.Check(h)
		if !res.Atomic && res.Violation.Code == atomicity.ReadFromNowhere {
			broken = true
		}
	}
	if !broken {
		t.Fatal("the lying server never poisoned a W2R2 read — attack model broken")
	}
}

// TestW2R1AdmissibilityResistsSingleLiar: the fast read's admissibility
// predicate demands a quorum of witnesses per value, which one Byzantine
// server cannot forge — the forged value is never returned and the
// histories stay atomic. The witness quorums of Algorithm 1 thus already
// provide value authenticity, the first ingredient of the Section 5.2
// Byzantine extension.
func TestW2R1AdmissibilityResistsSingleLiar(t *testing.T) {
	p := byzProtocol{protocols.Must("W2R1")}
	for seed := int64(1); seed <= 10; seed++ {
		sim := model.MustNew(feasible(), p, model.WithSeed(seed))
		h := workload.Run(sim, workload.Mix{WritesPerWriter: 3, ReadsPerReader: 3})
		for _, rd := range h.Reads() {
			if rd.Value.Data == "FORGED" {
				t.Fatalf("seed %d: fast read returned the forged value", seed)
			}
		}
		if res := atomicity.Check(h); !res.Atomic {
			t.Fatalf("seed %d: W2R1 under a single liar: %v", seed, res)
		}
	}
}

// TestVouchingFiltersForgedValues: the t+1-vouching defense removes the
// fabricated value; reads return only genuinely written values and the
// histories are atomic again under this attack.
func TestVouchingFiltersForgedValues(t *testing.T) {
	cfg := feasible()
	p := byzantine.NewVouched(byzProtocol{protocols.Must("W2R1")}, cfg.T)
	for seed := int64(1); seed <= 10; seed++ {
		sim := model.MustNew(cfg, p, model.WithSeed(seed))
		h := workload.Run(sim, workload.Mix{WritesPerWriter: 3, ReadsPerReader: 3})
		for _, rd := range h.Reads() {
			if rd.Value.Data == "FORGED" {
				t.Fatalf("seed %d: vouched read returned the forged value", seed)
			}
		}
		if res := atomicity.Check(h); !res.Atomic {
			t.Fatalf("seed %d: vouched run not atomic under this attack: %v", seed, res)
		}
	}
}

// TestVouchingHarmlessWithoutByzantine: with honest servers the filter
// changes nothing — all histories stay atomic and reads see real values.
func TestVouchingHarmlessWithoutByzantine(t *testing.T) {
	cfg := feasible()
	p := byzantine.NewVouched(protocols.Must("W2R1"), cfg.T)
	if p.Name() != "W2R1+vouch" {
		t.Fatalf("name = %q", p.Name())
	}
	for seed := int64(1); seed <= 10; seed++ {
		sim := model.MustNew(cfg, p, model.WithSeed(seed), model.WithDelay(model.UniformDelay(1, 120)))
		h := workload.Run(sim, workload.Mix{WritesPerWriter: 4, ReadsPerReader: 4})
		if got := len(h.Completed()); got != 16 {
			t.Fatalf("seed %d: completed %d", seed, got)
		}
		if res := atomicity.Check(h); !res.Atomic {
			t.Fatalf("seed %d: %v", seed, res)
		}
	}
}

func TestFilterUnvouchedMechanics(t *testing.T) {
	forged := types.Value{Tag: types.Tag{TS: 99, WID: types.Writer(9)}, Data: "F"}
	real := types.Value{Tag: types.Tag{TS: 1, WID: types.Writer(1)}, Data: "r"}
	mk := func(vals ...types.Value) register.Reply {
		ack := proto.FastReadAck{}
		for _, v := range vals {
			ack.Vector = append(ack.Vector, proto.VectorEntry{Val: v})
		}
		return register.Reply{From: types.Server(1), Msg: ack}
	}
	replies := []register.Reply{mk(real, forged), mk(real), mk(real)}
	out := byzantine.FilterUnvouched(replies, 1)
	for _, rep := range out {
		ack := rep.Msg.(proto.FastReadAck)
		for _, e := range ack.Vector {
			if e.Val == forged {
				t.Fatal("forged value (1 report ≤ t=1) survived the filter")
			}
		}
	}
	// The real value (3 reports > t) must survive everywhere it appeared.
	kept := 0
	for _, rep := range out {
		ack := rep.Msg.(proto.FastReadAck)
		for _, e := range ack.Vector {
			if e.Val == real {
				kept++
			}
		}
	}
	if kept != 3 {
		t.Fatalf("real value kept %d times, want 3", kept)
	}
}

// TestLyingServerLeavesTheHonestStateAlone: a VectorServer's reply is its
// own vector, so the liar has to copy before it appends. The forgery must
// appear in the reply it was added to and nowhere else — not in the inner
// server's state, not in a reply captured earlier, not in the next one.
func TestLyingServerLeavesTheHonestStateAlone(t *testing.T) {
	inner := protocols.Must("W2R1").NewServer(types.Server(1), feasible())
	liar := byzantine.NewLyingServer(inner)
	v := types.Value{Tag: types.Tag{TS: 1, WID: types.Writer(1)}, Data: "real"}
	liar.Handle(types.Writer(1), proto.Update{Val: &v})

	forgedIn := func(m proto.Message) bool {
		_, ok := m.(proto.FastReadAck).Entry(liar.Forged())
		return ok
	}
	req := &proto.FastRead{ValQueue: []types.Value{types.InitialValue()}}
	honestBefore := inner.Handle(types.Reader(1), req)
	for i := 0; i < 3; i++ {
		if !forgedIn(liar.Handle(types.Reader(1), req)) {
			t.Fatalf("lying reply %d lacks the forgery", i)
		}
		if honest := inner.Handle(types.Reader(1), req); forgedIn(honest) {
			t.Fatalf("after lie %d the honest server's own reply carries the forgery: %v", i, honest)
		}
	}
	if forgedIn(honestBefore) {
		t.Fatalf("a reply captured before the lies now carries the forgery: %v", honestBefore)
	}
	if n := len(honestBefore.(proto.FastReadAck).Vector); n != 2 {
		t.Fatalf("honest reply has %d entries, want 2", n)
	}
}

// TestLyingServerForgesTagAcks: a write's TagQuery meets the forged tag,
// as a read's Query meets the forged value, and the inner server's own
// TagAck keeps its real tag.
func TestLyingServerForgesTagAcks(t *testing.T) {
	for _, p := range []register.Protocol{protocols.Must("W2R2"), protocols.Must("W2R1")} {
		inner := p.NewServer(types.Server(1), feasible())
		liar := byzantine.NewLyingServer(inner)
		v := types.Value{Tag: types.Tag{TS: 1, WID: types.Writer(1)}, Data: "real"}
		liar.Handle(types.Writer(1), proto.Update{Val: &v})
		if got := *liar.Handle(types.Writer(2), proto.TagQuery{}).(proto.TagAck).Tag; got != liar.Forged().Tag {
			t.Errorf("%s: lying TagAck carries %v, want the forged %v", p.Name(), got, liar.Forged().Tag)
		}
		if got := *inner.Handle(types.Writer(2), proto.TagQuery{}).(proto.TagAck).Tag; got != v.Tag {
			t.Errorf("%s: honest TagAck carries %v, want %v", p.Name(), got, v.Tag)
		}
	}
}

// valQueue is what reader r would send next: the valQueue its next read's
// request carries.
func valQueue(r register.Reader) []types.Value {
	return r.ReadOp().Begin().Payload.(*proto.FastRead).ValQueue
}

// TestVouchedReadersDropDeadValues: FilterUnvouched rebuilds every reply,
// and keeps its floor, so a vouched reader's valQueue sheds the values no
// read can return any more instead of holding every value ever written.
func TestVouchedReadersDropDeadValues(t *testing.T) {
	cfg := feasible()
	sim := model.MustNew(cfg, byzantine.NewVouched(protocols.Must("W2R1"), cfg.T))
	h := workload.Run(sim, workload.Mix{WritesPerWriter: 6, ReadsPerReader: 6})
	written := len(h.Writes())
	for i := 1; i <= cfg.R; i++ {
		if q := valQueue(sim.Reader(i)); len(q) > written/2 {
			t.Errorf("r%d's valQueue holds %d of %d values written: %v", i, len(q), written, q)
		}
	}
}

// TestLiarsFloorCannotKillLiveValues: a reader drops values below the
// smallest floor in its quorum, so a replica that claims a high floor
// cannot make it drop a value the honest replicas still hold live.
func TestLiarsFloorCannotKillLiveValues(t *testing.T) {
	cfg := feasible()
	v1 := types.Value{Tag: types.Tag{TS: 1, WID: types.Writer(1)}, Data: "one"}
	v2 := types.Value{Tag: types.Tag{TS: 2, WID: types.Writer(2)}, Data: "two"}
	honest := proto.FastReadAck{Vector: []proto.VectorEntry{
		{Val: v1, Updated: []types.ProcID{types.Writer(1), types.Reader(1), types.Reader(2)}},
		{Val: v2, Updated: []types.ProcID{types.Writer(2), types.Reader(1)}},
	}, Floor: v1.Tag}
	liar := honest
	liar.Floor = types.Tag{TS: 1 << 40, WID: types.Writer(999)}
	replies := []register.Reply{{From: types.Server(1), Msg: liar}}
	for i := 2; i <= cfg.S-cfg.T; i++ {
		replies = append(replies, register.Reply{From: types.Server(i), Msg: honest})
	}
	r := byzantine.NewVouched(protocols.Must("W2R1"), cfg.T).NewReader(types.Reader(1), cfg)
	op := r.ReadOp()
	op.Begin()
	if _, got, done, err := op.Next(replies); err != nil || !done || got != v2 {
		t.Fatalf("read = %v, %v, %v; want %v", got, done, err, v2)
	}
	if q := valQueue(r); len(q) != 2 || q[0] != v1 || q[1] != v2 {
		t.Errorf("valQueue %v, want [%v %v]: only (0,⊥) is below the honest floor", q, v1, v2)
	}
}
