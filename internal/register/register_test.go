package register_test

import (
	"errors"
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
