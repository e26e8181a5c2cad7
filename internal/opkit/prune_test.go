package opkit_test

import (
	"fmt"
	"math/rand"
	"testing"

	"fastreg/internal/history"
	"fastreg/internal/model"
	"fastreg/internal/opkit"
	"fastreg/internal/proto"
	"fastreg/internal/protocols"
	"fastreg/internal/quorum"
	"fastreg/internal/register"
	"fastreg/internal/types"
	"fastreg/internal/vclock"
)

// replicas swaps the replicas of a fast-read protocol; its clients stay the
// protocol's own.
type replicas struct {
	register.Protocol
	build func(id types.ProcID, readers int) register.ServerLogic
}

func (p replicas) NewServer(id types.ProcID, cfg quorum.Config) register.ServerLogic {
	return p.build(id, cfg.R)
}

// slowTail draws a delay from 1 to 20, and holds one message in ten twenty
// times as long: a write still in flight at most replicas while a reader
// reads twice is what lets a wrong floor drop a live value.
func slowTail(_, _ types.ProcID, rng *rand.Rand) vclock.Duration {
	d := 1 + vclock.Duration(rng.Int63n(20))
	if rng.Intn(10) == 0 {
		d *= 20
	}
	return d
}

// algorithm2 is the replica without a floor: it keeps every value.
func algorithm2(id types.ProcID, _ int) register.ServerLogic { return opkit.NewVectorServer(id, 0) }

// execution is one seeded simulator run: every writer and reader issues
// ops back to back, writers after up to 20 ticks of think time and readers
// after up to 5, over slowTail's delays,
// while up to t replicas fail, each either by a crash or by permanently
// skipping some clients. The seed fixes the schedule; the protocol only
// decides what the ops return.
func execution(p register.Protocol, cfg quorum.Config, seed int64, ops int) (history.History, *model.Sim) {
	rng := rand.New(rand.NewSource(seed))
	delay := slowTail
	var crashes []types.ProcID
	for _, i := range rng.Perm(cfg.S)[:rng.Intn(cfg.T+1)] {
		srv := types.Server(i + 1)
		if rng.Intn(2) == 0 {
			crashes = append(crashes, srv)
			continue
		}
		for c := 1; c <= cfg.W+cfg.R; c++ {
			if rng.Intn(2) == 0 {
				client := types.Writer(c)
				if c > cfg.W {
					client = types.Reader(c - cfg.W)
				}
				delay = model.Skip(delay, client, srv)
			}
		}
	}
	sim := model.MustNew(cfg, p, model.WithDelay(delay), model.WithSeed(seed))
	for _, srv := range crashes {
		sim.CrashServer(srv, vclock.Time(rng.Int63n(int64(ops)*60)))
	}
	run := func(think int64, op func(n int) register.Operation) {
		n := 0
		var next func(types.Value, error)
		next = func(types.Value, error) {
			if n++; n <= ops {
				sim.InvokeAt(sim.Now().Add(vclock.Duration(rng.Int63n(think+1))), op(n), next)
			}
		}
		next(types.Value{}, nil)
	}
	for i := 1; i <= cfg.W; i++ {
		w := sim.Writer(i)
		run(20, func(n int) register.Operation { return w.WriteOp(fmt.Sprintf("w%d.%d", i, n)) })
	}
	for i := 1; i <= cfg.R; i++ {
		r := sim.Reader(i)
		run(5, func(int) register.Operation { return r.ReadOp() })
	}
	sim.Run()
	return sim.History(), sim
}

// firstDifference describes the first op on which two histories of one
// schedule disagree, or returns "".
func firstDifference(a, b history.History) string {
	if len(a.Ops) != len(b.Ops) {
		return fmt.Sprintf("%d ops against %d", len(a.Ops), len(b.Ops))
	}
	errText := func(err error) string {
		if err == nil {
			return ""
		}
		return err.Error()
	}
	for i, x := range a.Ops {
		y := b.Ops[i]
		if x.Client != y.Client || x.OpID != y.OpID || x.Kind != y.Kind || x.Invoke != y.Invoke ||
			x.Response != y.Response || x.Value != y.Value || errText(x.Err) != errText(y.Err) {
			return fmt.Sprintf("op %d: %+v against %+v", i, x, y)
		}
	}
	return ""
}

// entries counts the values every replica of a finished run still holds.
func entries(sim *model.Sim) int {
	n := 0
	for i := 1; i <= sim.Config().S; i++ {
		n += len(sim.Server(i).(*opkit.VectorServer).VectorSnapshot())
	}
	return n
}

// TestPruningMatchesAlgorithm2 is the dead-value lemma's differential
// check: on every seeded schedule, W2R1 and W1R1 on pruning replicas
// produce the history they produce on Algorithm 2's replicas, op for op —
// value, error and response time — on feasible and infeasible shapes
// (R < S/t − 2 holds only for the first), under crashes and
// permanent skips. The floor must have fired, and W2R1 on a mutant whose
// floor is the maximum over the readers must differ on every shape.
func TestPruningMatchesAlgorithm2(t *testing.T) {
	seeds, ops := 200, 32
	if raceEnabled {
		seeds = 30
	}
	shapes := []quorum.Config{
		{S: 5, T: 1, R: 2, W: 2},
		{S: 5, T: 1, R: 4, W: 2},
		{S: 7, T: 2, R: 2, W: 2},
	}
	protocols := []register.Protocol{protocols.Must("W2R1"), protocols.Must("W1R1")}
	for _, cfg := range shapes {
		for _, p := range protocols {
			if p.WriteRounds() == 1 {
				cfg.W = 1
			}
			t.Run(fmt.Sprintf("%s/S=%d,t=%d,R=%d", p.Name(), cfg.S, cfg.T, cfg.R), func(t *testing.T) {
				kept, all, caught := 0, 0, 0
				for seed := int64(1); seed <= int64(seeds); seed++ {
					want, full := execution(replicas{p, algorithm2}, cfg, seed, ops)
					got, pruned := execution(p, cfg, seed, ops)
					if d := firstDifference(got, want); d != "" {
						t.Fatalf("seed %d: pruning changed the history: %s", seed, d)
					}
					kept, all = kept+entries(pruned), all+entries(full)
					if p.WriteRounds() == 2 {
						mutant, _ := execution(replicas{p, opkit.NewMaxFloorServer}, cfg, seed, ops)
						if firstDifference(mutant, want) != "" {
							caught++
						}
					}
				}
				t.Logf("%d seeds: replicas end with %d entries, %d without the floor; mutant caught on %d", seeds, kept, all, caught)
				if kept >= all {
					t.Errorf("the floor never fired: %d entries kept of %d", kept, all)
				}
				if p.WriteRounds() == 2 && caught == 0 {
					t.Errorf("the max-floor mutant was not caught in %d seeds", seeds)
				}
			})
		}
	}
}

func tagged(ts int64) types.Value {
	return types.Value{Tag: types.Tag{TS: ts, WID: types.Writer(1)}, Data: fmt.Sprint("v", ts)}
}

// A reader whose state was evicted (fastreg's WithEvictionTTL) comes back
// with valQueue {(0,⊥)}, below the floor it raised before. Here every
// replica holds a value no other replica has, with both readers on it, so
// no value in the live vectors is admissible: the read ends with the
// request's own largest value, which every replica stores as Lemma 3's
// witness although it is dead, and not with ErrProtocol.
func TestResetReaderReadsAPrunedKey(t *testing.T) {
	servers := make([]register.ServerLogic, 5)
	for i := range servers {
		s := opkit.NewVectorServer(types.Server(i+1), 2)
		own := tagged(int64(i + 1))
		var ack proto.FastReadAck
		for _, r := range []types.ProcID{types.Reader(1), types.Reader(2)} {
			ack = s.Handle(r, &proto.FastRead{ValQueue: []types.Value{types.InitialValue(), own}}).(proto.FastReadAck)
		}
		if ack.Floor != own.Tag || len(ack.Vector) != 1 {
			t.Fatalf("replica %d: floor %v and vector %v, want floor %v and only %v", i+1, ack.Floor, ack.Vector, own.Tag, own)
		}
		servers[i] = s
	}
	read := opkit.NewFastReadOp(types.Reader(1), opkit.NewReaderState(), opkit.AdmissibleConfig{S: 5, T: 1, MaxDegree: 3}, 4)
	_, got, err := register.CountRounds(read, servers)
	if err != nil {
		t.Fatalf("a reset reader's read of a pruned key: %v", err)
	}
	if !got.IsInitial() {
		t.Errorf("read returned %v, want the witness %v", got, types.InitialValue())
	}
}

// A FastRead from a client outside the shape's readers (here r3 of two)
// freezes the floor: the readers' later requests no longer raise it. The
// unknown reader's own largest value comes back as its witness.
func TestUnknownReaderFreezesTheFloor(t *testing.T) {
	s := opkit.NewVectorServer(types.Server(1), 2)
	read := func(r types.ProcID, queue ...types.Value) proto.FastReadAck {
		return s.Handle(r, &proto.FastRead{ValQueue: queue}).(proto.FastReadAck)
	}
	read(types.Reader(1), tagged(2))
	if ack := read(types.Reader(2), tagged(2)); ack.Floor != tagged(2).Tag {
		t.Fatalf("floor %v after both readers sent %v", ack.Floor, tagged(2))
	}
	if e, _ := read(types.Reader(3), tagged(1)).Entry(tagged(1)); !e.HasUpdated(types.Reader(3)) {
		t.Errorf("the unknown reader's largest value is missing from its reply: %v", e)
	}
	read(types.Reader(1), tagged(3), tagged(4))
	ack := read(types.Reader(2), tagged(4))
	if ack.Floor != tagged(2).Tag {
		t.Errorf("floor rose to %v after an unknown reader, want it frozen at %v", ack.Floor, tagged(2).Tag)
	}
	for _, v := range []types.Value{tagged(2), tagged(3), tagged(4)} {
		if _, ok := ack.Entry(v); !ok {
			t.Errorf("%v dropped above the frozen floor: %v", v, ack)
		}
	}
}
