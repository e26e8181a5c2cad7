// Package register defines the abstractions every protocol in the design
// space implements: passive server state machines and round-based client
// operations.
//
// The split mirrors the algorithm schema of Section 2.2: "In each round-trip,
// the client can query all the servers [...] The client can also update all
// the servers." A client operation is therefore a short sequence of rounds;
// each round broadcasts one message to all servers and waits for a quorum of
// replies. Servers are purely reactive: they receive a message, mutate local
// state, and reply.
//
// Because both halves are deterministic reactions, the same protocol code
// runs unchanged in the paper's model (internal/model: its timed scheduler
// and the scripted one that rebuilds the proof's executions) and in the
// live round engine and replica loop (internal/transport).
package register

import (
	"errors"
	"fmt"

	"fastreg/internal/proto"
	"fastreg/internal/quorum"
	"fastreg/internal/types"
)

// ErrProtocol reports a protocol-level violation (unexpected reply kind,
// malformed state). Operations wrap it with detail.
var ErrProtocol = errors.New("register: protocol error")

// ErrTimeout reports a client operation abandoned because its
// context.Context expired or was cancelled before a reply quorum arrived —
// e.g. more than t servers are unreachable. The operation's outcome is
// indeterminate: its messages may still take effect at the servers. The
// history records it as failed, and the atomicity checker models failed
// writes as OPTIONAL operations (linearized if some read observed their
// value, dropped otherwise — the standard completion semantics for
// crashed operations), so checker verdicts remain binding for runs that
// contain timeouts.
var ErrTimeout = errors.New("register: operation timed out")

// Round is one broadcast round-trip: the payload goes to every server; the
// operation proceeds once Need replies have arrived. Need is almost always
// S − t (the reply quorum), the most a wait-free client may wait for when t
// servers can crash.
type Round struct {
	Payload proto.Message
	Need    int
}

// Reply is one server's answer within a round.
type Reply struct {
	From types.ProcID
	Msg  proto.Message
}

// Operation is a client-side state machine executing one read or write.
// The engine drives it: Begin returns the first round; each time the round's
// quorum of replies is in, the engine calls Next, which either returns the
// following round or the final result.
//
// Implementations must be deterministic functions of the replies they are
// fed; they must not retain the reply slice. Next may run on another
// goroutine than Begin — the transport client runs it on the goroutine
// that delivered the round's completing reply — but never concurrently
// with another call on the same operation.
type Operation interface {
	// Client is the invoking process (a reader or writer ProcID).
	Client() types.ProcID
	// Kind reports read or write.
	Kind() types.OpKind
	// Arg is the value a write stores; zero Value for reads.
	Arg() types.Value
	// Begin returns the first round.
	Begin() Round
	// Next consumes the current round's replies. It returns the next round,
	// or done=true with the operation's result: for a read, the value read;
	// for a write, the tagged value written. next may point into the
	// operation itself and is valid only until the following call, so
	// callers copy *next at once.
	Next(replies []Reply) (next *Round, result types.Value, done bool, err error)
}

// ServerLogic is one server replica's protocol state machine. Handle is
// called once per delivered message and returns the reply (nil for none —
// used only by crashed/byzantine-free variants; all protocols here always
// reply).
type ServerLogic interface {
	ID() types.ProcID
	Handle(from types.ProcID, m proto.Message) proto.Message
	// CurrentValue exposes the server's maximal stored value for inspection
	// by tests, traces and the crucial-info analysis. Protocol code never
	// calls it.
	CurrentValue() types.Value
}

// Writer creates write operations for one writer client, carrying its
// persistent local state (e.g. the ABD writer's timestamp counter) across
// operations.
type Writer interface {
	ID() types.ProcID
	WriteOp(data string) Operation
}

// Reader creates read operations for one reader client, carrying its
// persistent local state (e.g. Algorithm 1's valQueue) across operations.
type Reader interface {
	ID() types.ProcID
	ReadOp() Operation
}

// Protocol is a factory for one point of the design space (Fig 2).
type Protocol interface {
	// Name is the design-space label: "W2R2", "W1R2", "W2R1", "W1R1".
	Name() string
	// WriteRounds and ReadRounds are the round-trip counts the protocol
	// promises — the quantity the whole paper is about.
	WriteRounds() int
	ReadRounds() int
	// Implementable reports whether the protocol guarantees atomicity on
	// this configuration (the Table 1 condition for its quadrant).
	Implementable(cfg quorum.Config) bool
	NewServer(id types.ProcID, cfg quorum.Config) ServerLogic
	NewWriter(id types.ProcID, cfg quorum.Config) Writer
	NewReader(id types.ProcID, cfg quorum.Config) Reader
}

// BadReply builds the standard error for an unexpected reply kind.
func BadReply(op string, got proto.Message) error {
	return fmt.Errorf("%w: %s received unexpected %T", ErrProtocol, op, got)
}

// CountRounds walks an Operation against a fixed set of server logics,
// delivering every round to every server in ID order and feeding all replies
// back. It returns the number of rounds the operation took and its result.
// It is a convenience for unit tests of protocol packages (failure-free,
// sequential world); the simulators provide the real execution environments.
func CountRounds(op Operation, servers []ServerLogic) (rounds int, result types.Value, err error) {
	r := op.Begin()
	for {
		rounds++
		if r.Need > len(servers) {
			return rounds, types.Value{}, fmt.Errorf("%w: round needs %d replies, only %d servers", ErrProtocol, r.Need, len(servers))
		}
		replies := make([]Reply, 0, len(servers))
		for _, s := range servers {
			if m := s.Handle(op.Client(), r.Payload); m != nil {
				replies = append(replies, Reply{From: s.ID(), Msg: m})
			}
		}
		if len(replies) < r.Need {
			return rounds, types.Value{}, fmt.Errorf("%w: quorum not reached (%d < %d)", ErrProtocol, len(replies), r.Need)
		}
		next, res, done, err := op.Next(replies[:r.Need])
		if err != nil {
			return rounds, types.Value{}, err
		}
		if done {
			return rounds, res, nil
		}
		if next == nil {
			return rounds, types.Value{}, fmt.Errorf("%w: operation neither done nor continuing", ErrProtocol)
		}
		r = *next
	}
}
