package register_test

import (
	"errors"
	"slices"
	"strings"
	"testing"

	"fastreg/internal/opkit"
	"fastreg/internal/proto"
	"fastreg/internal/register"
	"fastreg/internal/types"
)

func servers(n int) []register.ServerLogic {
	out := make([]register.ServerLogic, n)
	for i := range out {
		out[i] = opkit.NewStoreServer(types.Server(i + 1))
	}
	return out
}

func TestCountRoundsTwoPhase(t *testing.T) {
	op := opkit.NewQueryThenUpdateWrite(types.Writer(1), "x", 2, new(int64))
	rounds, res, err := register.CountRounds(op, servers(3))
	if err != nil {
		t.Fatal(err)
	}
	if rounds != 2 {
		t.Errorf("rounds = %d", rounds)
	}
	if res.Data != "x" || res.Tag.TS != 1 {
		t.Errorf("result = %v", res)
	}
}

func TestCountRoundsQuorumTooLarge(t *testing.T) {
	op := opkit.NewQueryThenUpdateWrite(types.Writer(1), "x", 5, new(int64))
	_, _, err := register.CountRounds(op, servers(3))
	if !errors.Is(err, register.ErrProtocol) {
		t.Fatalf("err = %v, want ErrProtocol", err)
	}
}

// silentServer never replies, modelling a crashed replica inside
// CountRounds.
type silentServer struct{ id types.ProcID }

func (s silentServer) ID() types.ProcID                                 { return s.id }
func (s silentServer) CurrentValue() types.Value                        { return types.Value{} }
func (s silentServer) Handle(types.ProcID, proto.Message) proto.Message { return nil }

func TestCountRoundsQuorumNotReached(t *testing.T) {
	logics := []register.ServerLogic{
		opkit.NewStoreServer(types.Server(1)),
		silentServer{types.Server(2)},
		silentServer{types.Server(3)},
	}
	op := opkit.NewQueryThenUpdateWrite(types.Writer(1), "x", 2, new(int64))
	_, _, err := register.CountRounds(op, logics)
	if !errors.Is(err, register.ErrProtocol) {
		t.Fatalf("err = %v, want ErrProtocol", err)
	}
}

// stuckOp neither finishes nor continues — CountRounds must reject it
// instead of looping.
type stuckOp struct{}

func (stuckOp) Client() types.ProcID { return types.Reader(1) }
func (stuckOp) Kind() types.OpKind   { return types.OpRead }
func (stuckOp) Arg() types.Value     { return types.Value{} }
func (stuckOp) Begin() register.Round {
	return register.Round{Payload: proto.Query{}, Need: 1}
}
func (stuckOp) Next([]register.Reply) (*register.Round, types.Value, bool, error) {
	return nil, types.Value{}, false, nil
}

func TestCountRoundsStuckOperation(t *testing.T) {
	_, _, err := register.CountRounds(stuckOp{}, servers(1))
	if !errors.Is(err, register.ErrProtocol) {
		t.Fatalf("err = %v, want ErrProtocol", err)
	}
}

func TestBadReplyMentionsTypeAndOp(t *testing.T) {
	err := register.BadReply("my-op", proto.UpdateAck{})
	if !errors.Is(err, register.ErrProtocol) {
		t.Fatal("BadReply must wrap ErrProtocol")
	}
	msg := err.Error()
	for _, frag := range []string{"my-op", "UpdateAck"} {
		if !strings.Contains(msg, frag) {
			t.Errorf("error %q missing %q", msg, frag)
		}
	}
}

// scriptedOp opens a Need-2 first round; its Next returns what next
// returns for the call's number (1-based), and it keeps how many replies
// each call received.
type scriptedOp struct {
	stuckOp
	next func(call int) (*register.Round, types.Value, bool, error)
	got  []int
}

func (o *scriptedOp) Begin() register.Round { return register.Round{Payload: proto.Query{}, Need: 2} }
func (o *scriptedOp) Next(replies []register.Reply) (*register.Round, types.Value, bool, error) {
	o.got = append(o.got, len(replies))
	return o.next(len(o.got))
}

// collectorStep is one step of a TestCollector row: a reply from server
// from to round round, or, with from 0, completing the open round.
type collectorStep struct {
	round, from int
	took        bool // the reply counted, or completing opened a next round
	ready       bool // the open round is ready after the step
}

func reply(round, from int, counted, ready bool) collectorStep {
	return collectorStep{round, from, counted, ready}
}

// complete completes the open round. A finished op keeps its last
// round's replies, so that round stays ready.
func complete(more bool) collectorStep { return collectorStep{took: more, ready: !more} }

// TestCollector holds the round rule to one row per clause, each a Need-2
// operation on three servers.
func TestCollector(t *testing.T) {
	errNext := errors.New("next failed")
	twoRounds := func(call int) (*register.Round, types.Value, bool, error) {
		if call == 1 {
			return &register.Round{Payload: proto.Update{}, Need: 2}, types.Value{}, false, nil
		}
		return nil, types.Value{Data: "v"}, true, nil
	}
	cases := []struct {
		name     string
		next     func(call int) (*register.Round, types.Value, bool, error)
		steps    []collectorStep
		wantNext []int // replies each Next call received
		wantErr  error // for a finished op; nil: its result is "v"
		done     bool
	}{
		{
			name:     "a straggler from an earlier round is not counted",
			next:     twoRounds,
			steps:    []collectorStep{reply(1, 1, true, false), reply(1, 2, true, true), complete(true), reply(1, 3, false, false), reply(2, 3, true, false)},
			wantNext: []int{2},
		},
		{
			name:  "a reply to a later round is not counted",
			next:  twoRounds,
			steps: []collectorStep{reply(2, 1, false, false), reply(1, 1, true, false)},
		},
		{
			name:  "a second reply from one server is not counted",
			next:  twoRounds,
			steps: []collectorStep{reply(1, 1, true, false), reply(1, 1, false, false), reply(1, 2, true, true)},
		},
		{
			name: "a reply after the op finished is not counted",
			next: twoRounds,
			steps: []collectorStep{reply(1, 1, true, false), reply(1, 2, true, true), complete(true),
				reply(2, 1, true, false), reply(2, 2, true, true), complete(false), reply(2, 3, false, true)},
			wantNext: []int{2, 2},
			done:     true,
		},
		{
			name:     "ready exactly at Need, and counting on past it for a caller that waits",
			next:     twoRounds,
			steps:    []collectorStep{reply(1, 3, true, false), reply(1, 1, true, true), reply(1, 2, true, true), complete(true)},
			wantNext: []int{3},
		},
		{
			name: "a Next error finishes the op",
			next: func(int) (*register.Round, types.Value, bool, error) {
				return &register.Round{Need: 2}, types.Value{Data: "v"}, true, errNext
			},
			steps:    []collectorStep{reply(1, 1, true, false), reply(1, 2, true, true), complete(false), reply(1, 3, false, true)},
			wantNext: []int{2},
			wantErr:  errNext,
			done:     true,
		},
		{
			name: "neither done nor next is ErrProtocol",
			next: func(int) (*register.Round, types.Value, bool, error) {
				return nil, types.Value{}, false, nil
			},
			steps:    []collectorStep{reply(1, 1, true, false), reply(1, 2, true, true), complete(false)},
			wantNext: []int{2},
			wantErr:  register.ErrProtocol,
			done:     true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			op := &scriptedOp{next: tc.next}
			var c register.Collector
			if first := c.Begin(op, 3); first.Need != 2 || c.Round() != 1 || c.Op() != op {
				t.Fatalf("Begin: round %d, need %d", c.Round(), first.Need)
			}
			for i, s := range tc.steps {
				var took bool
				if s.from == 0 {
					_, took = c.Complete()
				} else {
					took = c.Count(s.round, register.Reply{From: types.Server(s.from), Msg: proto.QueryAck{}})
				}
				if took != s.took || c.Ready() != s.ready {
					t.Fatalf("step %d %+v: took %v, ready %v", i, s, took, c.Ready())
				}
			}
			if !slices.Equal(op.got, tc.wantNext) {
				t.Fatalf("Next received %v replies, want %v", op.got, tc.wantNext)
			}
			res, err := c.Result()
			switch {
			case c.Done() != tc.done:
				t.Fatalf("done = %v", c.Done())
			case !tc.done:
			case tc.wantErr != nil && (!errors.Is(err, tc.wantErr) || res != types.Value{}):
				t.Fatalf("result %v, %v; want the zero value and %v", res, err, tc.wantErr)
			case tc.wantErr == nil && (err != nil || res.Data != "v"):
				t.Fatalf("result %v, %v; want v", res, err)
			}
			c.Reset()
			if c.Round() != 0 || c.Op() != nil || c.Done() || len(c.Replies()) != 0 {
				t.Fatalf("after Reset: round %d, op %v, done %v, %d replies", c.Round(), c.Op(), c.Done(), len(c.Replies()))
			}
		})
	}
}
