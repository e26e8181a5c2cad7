package model_test

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"fastreg/internal/chains"
	"fastreg/internal/crucialinfo"
	"fastreg/internal/history"
	"fastreg/internal/model"
	"fastreg/internal/opkit"
	"fastreg/internal/protocols"
	"fastreg/internal/quorum"
	"fastreg/internal/register"
	"fastreg/internal/types"
	"fastreg/internal/vclock"
)

// invariants checks the step invariants on every step of one execution,
// the way TLC checks a TLA+ spec's TypeOK on every state:
//
//   - (a) a server handles each (op, round) request at most once, and
//     nothing after its crash step;
//   - (b) round k+1 of an op is never sent before round k completed;
//   - (c) a round counts at most one reply per server, and only while it
//     is the open round;
//   - (d) every invoked op is responded exactly once or stays pending;
//   - (e) a round completes only with at least its Need replies counted,
//     and hands on exactly the replies its reply steps counted.
//
// (d) ends with checkHistory, which holds the responses the steps made to
// the recorded history.
type invariants struct {
	crashed   map[int]bool
	handled   map[[3]int]bool // (op, round, server): requests handled
	counted   map[[3]int]bool // (op, round, server): replies counted
	tally     map[[2]int]int  // (op, round): replies counted
	sent      []int           // each op's last sent round
	responded []bool
	err       error
}

func newInvariants() *invariants {
	return &invariants{crashed: map[int]bool{}, handled: map[[3]int]bool{}, counted: map[[3]int]bool{}, tally: map[[2]int]int{}}
}

func (v *invariants) step(s model.Step) {
	if v.err != nil {
		return
	}
	fail := func(invariant, format string, args ...any) {
		v.err = fmt.Errorf("(%s) %+v: %s", invariant, s, fmt.Sprintf(format, args...))
	}
	if s.Kind != "crash" && s.Kind != "invoke" && s.Op >= len(v.sent) {
		fail("b", "op %d was never invoked", s.Op)
		return
	}
	key := [3]int{s.Op, s.Round, s.Server}
	switch s.Kind {
	case "invoke":
		if s.Op != len(v.sent) || s.Round != 1 {
			fail("d", "invoked as op %d round %d after %d ops", s.Op, s.Round, len(v.sent))
		}
		v.sent, v.responded = append(v.sent, 1), append(v.responded, false)
	case "request":
		switch {
		case s.Round < 1 || s.Round > v.sent[s.Op]:
			fail("b", "round %d delivered, but only rounds through %d were sent", s.Round, v.sent[s.Op])
		case s.Took && v.crashed[s.Server]:
			fail("a", "handled after the server's crash step")
		case !s.Took && !v.crashed[s.Server]:
			fail("a", "a live server dropped a request")
		case s.Took && v.handled[key]:
			fail("a", "handled a second time")
		}
		v.handled[key] = v.handled[key] || s.Took
	case "reply":
		switch {
		case !v.handled[key]:
			fail("a", "a reply to a request the server never handled")
		case s.Took && (v.responded[s.Op] || s.Round != v.sent[s.Op]):
			fail("c", "counted, but the open round is %d (responded: %v)", v.sent[s.Op], v.responded[s.Op])
		case s.Took && v.counted[key]:
			fail("c", "a second reply from one server counted")
		}
		v.counted[key] = v.counted[key] || s.Took
		if s.Took {
			v.tally[[2]int{s.Op, s.Round}]++
		}
	case "complete":
		switch n := v.tally[[2]int{s.Op, s.Round}]; {
		case v.responded[s.Op]:
			fail("d", "completed a round after the op responded")
		case s.Round != v.sent[s.Op]:
			fail("b", "completed round %d, but the open round is %d", s.Round, v.sent[s.Op])
		case n < s.Need:
			fail("e", "completed with %d replies counted, Need %d", n, s.Need)
		case n != s.Counted:
			fail("e", "handed on %d replies, but %d were counted", s.Counted, n)
		case s.Took:
			v.responded[s.Op] = true
		default:
			v.sent[s.Op]++
		}
	case "crash":
		v.crashed[s.Server] = true
	}
}

// checkHistory ends (d): op i of the history is the execution's i-th
// invocation, and it has a response exactly when a complete step
// responded it.
func (v *invariants) checkHistory(h history.History) error {
	if v.err != nil {
		return v.err
	}
	if len(h.Ops) != len(v.responded) {
		return fmt.Errorf("(d) %d ops invoked, %d in the history", len(v.responded), len(h.Ops))
	}
	for i, o := range h.Ops {
		if o.Done() != v.responded[i] {
			return fmt.Errorf("(d) op %d: responded %v by its steps, %v in the history: %v", i, v.responded[i], o.Done(), o)
		}
	}
	return nil
}

// checkAll installs a fresh invariants checker on every execution run
// inside f, and returns them in the order the executions started.
func checkAll(f func()) []*invariants {
	var all []*invariants
	restore := model.ObserveSteps(func() func(model.Step) {
		v := newInvariants()
		all = append(all, v)
		return v.step
	})
	defer restore()
	f()
	return all
}

// checkTimed runs one timed execution under the checker.
func checkTimed(t *testing.T, name string, run func() *model.Sim) {
	t.Helper()
	var sim *model.Sim
	vs := checkAll(func() { sim = run() })
	if len(vs) != 1 {
		t.Fatalf("%s: %d executions observed, want 1", name, len(vs))
	}
	if err := vs[0].checkHistory(sim.History()); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
}

// mixedWorkload is TestSimConcurrentMixedWorkloadAtomic's schedule: two
// writers and two readers run six ops each, back to back, on S=7 t=1 over
// uniform 5–80 delays.
func mixedWorkload(p register.Protocol) *model.Sim {
	sim := model.MustNew(quorum.Config{S: 7, T: 1, R: 2, W: 2}, p, model.WithSeed(9), model.WithDelay(model.UniformDelay(5, 80)))
	var spawn func(client int, isWriter bool, n int)
	spawn = func(client int, isWriter bool, n int) {
		if n == 0 {
			return
		}
		var op register.Operation
		if isWriter {
			op = sim.Writer(client).WriteOp("d")
		} else {
			op = sim.Reader(client).ReadOp()
		}
		sim.InvokeAt(sim.Now()+1, op, func(types.Value, error) { spawn(client, isWriter, n-1) })
	}
	for c := 1; c <= 2; c++ {
		spawn(c, true, 6)
		spawn(c, false, 6)
	}
	sim.Run()
	return sim
}

// slowTail and pruneSchedule are TestPruningMatchesAlgorithm2's schedule:
// delays from 1 to 20 with one message in ten held twenty times as long,
// up to t replicas failing by a crash or by skipping some clients, and
// every client issuing ops back to back after some think time.
func slowTail(_, _ types.ProcID, rng *rand.Rand) vclock.Duration {
	d := 1 + vclock.Duration(rng.Int63n(20))
	if rng.Intn(10) == 0 {
		d *= 20
	}
	return d
}

func pruneSchedule(p register.Protocol, cfg quorum.Config, seed int64, ops int) *model.Sim {
	rng := rand.New(rand.NewSource(seed))
	delay := model.DelayFn(slowTail)
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
	return sim
}

// TestStepInvariants checks the invariants on every step of the timed
// scheduler's mixed-workload and pruning schedules, of the scripted
// scheduler's every execution of the chain argument at S=3 and S=5, and of
// every script the explorer runs on W2R1 at S=3 with a write and two reads.
func TestStepInvariants(t *testing.T) {
	t.Run("timed/mixed", func(t *testing.T) {
		for _, p := range []register.Protocol{protocols.Must("W2R2"), protocols.Must("W2R1")} {
			checkTimed(t, p.Name(), func() *model.Sim { return mixedWorkload(p) })
		}
	})
	t.Run("timed/prune", func(t *testing.T) {
		seeds := 200
		if raceEnabled {
			seeds = 30
		}
		for _, cfg := range []quorum.Config{{S: 5, T: 1, R: 2, W: 2}, {S: 5, T: 1, R: 4, W: 2}, {S: 7, T: 2, R: 2, W: 2}} {
			for _, p := range []register.Protocol{protocols.Must("W2R1"), protocols.Must("W1R1")} {
				if p.WriteRounds() == 1 {
					cfg.W = 1
				}
				for seed := int64(1); seed <= int64(seeds); seed++ {
					name := fmt.Sprintf("%s S=%d t=%d R=%d seed %d", p.Name(), cfg.S, cfg.T, cfg.R, seed)
					checkTimed(t, name, func() *model.Sim { return pruneSchedule(p, cfg, seed, 32) })
				}
			}
		}
	})
	t.Run("scripted/chains", func(t *testing.T) {
		for _, s := range []int{3, 5} {
			for _, p := range []register.Protocol{crucialinfo.New(), protocols.Must("W1R2"), crucialinfo.NewKRound(3)} {
				var rep *chains.Report
				var err error
				vs := checkAll(func() { rep, err = chains.FindViolation(p, s) })
				if err != nil {
					t.Fatal(err)
				}
				for _, v := range vs {
					if v.err != nil {
						t.Fatalf("%s S=%d: %v", p.Name(), s, v.err)
					}
				}
				// Re-run each judged execution alone to hold its steps to its
				// history.
				f, err := chains.NewFamily(p, s)
				if err != nil {
					t.Fatal(err)
				}
				for _, verdict := range rep.Verdicts {
					var out *chains.Outcome
					vs := checkAll(func() { out, err = verdict.Outcome.Spec.Run(f.NewServerFn()) })
					if err != nil {
						t.Fatal(err)
					}
					if err := vs[0].checkHistory(out.History); err != nil {
						t.Fatalf("%s S=%d %s: %v", p.Name(), s, verdict.Execution, err)
					}
				}
				t.Logf("%s S=%d: %d executions checked step by step", p.Name(), s, len(vs))
			}
		}
	})
	t.Run("explored", func(t *testing.T) {
		depth := 4
		if raceEnabled {
			depth = 3
		}
		n := 0
		for _, sc := range skeleton(protocols.Must("W2R1"), 3, 1, 2, writeTwoReads).Scripts(depth, true) {
			var h history.History
			var err error
			vs := checkAll(func() { _, h, err = sc.Run() })
			if err != nil {
				t.Fatal(err)
			}
			if err := vs[0].checkHistory(h); err != nil {
				t.Fatalf("global %v, arrival %v: %v", sc.Global, sc.Arrival, err)
			}
			n++
		}
		t.Logf("%d explored executions checked step by step", n)
	})
}

// storeProtocol runs max-value store servers, for operations built by hand.
type storeProtocol struct{ register.Protocol }

func (storeProtocol) NewServer(id types.ProcID, _ quorum.Config) register.ServerLogic {
	return opkit.NewStoreServer(id)
}
func (storeProtocol) NewWriter(types.ProcID, quorum.Config) register.Writer { return nil }
func (storeProtocol) NewReader(types.ProcID, quorum.Config) register.Reader { return nil }

// TestSchedulersAgree runs TestSpecRunSequentialBaseline's skip-free
// sequential execution at S=3 on both schedulers: a one-round write that
// waits for 2 acks, then a read with write-back that waits for 2 replies
// per round. Both must return the same values, deliver replies from the
// same servers in every round, and record the same order of events.
func TestSchedulersAgree(t *testing.T) {
	ops := func() []register.Operation {
		v := types.Value{Tag: types.Tag{TS: 1, WID: types.Writer(1)}, Data: "a"}
		return []register.Operation{opkit.NewDirectWrite(types.Writer(1), v, 2), opkit.NewReadWriteBack(types.Reader(1), 2)}
	}
	// senders collects, per (op, round), the servers whose replies reached
	// the client, in delivery order.
	senders := func(got map[[2]int][]int) func() func(model.Step) {
		return func() func(model.Step) {
			return func(s model.Step) {
				if s.Kind == "reply" {
					key := [2]int{s.Op, s.Round}
					got[key] = append(got[key], s.Server)
				}
			}
		}
	}

	scripted := map[[2]int][]int{}
	restore := model.ObserveSteps(senders(scripted))
	global := []model.RT{{Op: 0, Round: 1}, {Op: 1, Round: 1}, {Op: 1, Round: 2}}
	sc := model.Script{Ops: ops(), Global: global, Arrival: map[int][]model.RT{}}
	for i := 1; i <= 3; i++ {
		sc.Servers = append(sc.Servers, opkit.NewStoreServer(types.Server(i)))
		sc.Arrival[i] = global
	}
	results, scriptedH, err := sc.Run()
	restore()
	if err != nil {
		t.Fatal(err)
	}

	timed := map[[2]int][]int{}
	restore = model.ObserveSteps(senders(timed))
	sim := model.MustNew(quorum.Config{S: 3, T: 1, W: 1, R: 1}, storeProtocol{}, model.WithDelay(model.ConstDelay(10)))
	timedOps := ops()
	var returned []types.Value
	sim.InvokeAt(0, timedOps[0], func(v types.Value, err error) {
		returned = append(returned, v)
		sim.InvokeAt(sim.Now()+1, timedOps[1], func(v types.Value, err error) { returned = append(returned, v) })
	})
	sim.Run()
	restore()

	if len(returned) != 2 || returned[0] != results[0].Value || returned[1] != results[1].Value {
		t.Errorf("timed returned %v, scripted %v and %v", returned, results[0].Value, results[1].Value)
	}
	if returned[1].Data != "a" {
		t.Errorf("the read returned %v, want the write's a", returned[1])
	}
	if fmt.Sprint(timed) != fmt.Sprint(scripted) {
		t.Errorf("reply senders per (op, round): timed %v, scripted %v", timed, scripted)
	}
	if a, b := eventOrder(sim.History()), eventOrder(scriptedH); !slices.Equal(a, b) {
		t.Errorf("event order: timed %v, scripted %v", a, b)
	}
}

// eventOrder lists a history's invocations and responses in time order,
// as "i<op>" and "r<op>" with op the operation's place in the history.
func eventOrder(h history.History) []string {
	type event struct {
		at   vclock.Time
		name string
	}
	var evs []event
	for i, o := range h.Ops {
		evs = append(evs, event{o.Invoke, fmt.Sprintf("i%d", i)})
		if o.Done() {
			evs = append(evs, event{o.Response, fmt.Sprintf("r%d", i)})
		}
	}
	slices.SortFunc(evs, func(a, b event) int { return int(a.at - b.at) })
	out := make([]string, len(evs))
	for i, e := range evs {
		out[i] = e.name
	}
	return out
}
