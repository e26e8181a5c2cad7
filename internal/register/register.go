// Package register defines the abstractions every protocol in the design
// space implements: passive server state machines and round-based client
// operations, and the one rule by which a client counts replies.
//
// The split mirrors the algorithm schema of Section 2.2: "In each round-trip,
// the client can query all the servers [...] The client can also update all
// the servers." A client operation is therefore a short sequence of rounds;
// each round broadcasts one message to all servers and waits for a quorum of
// replies. Servers are purely reactive: they receive a message, mutate local
// state, and reply.
//
// The round rule lives in Collector and nowhere else: a reply counts only
// toward the operation's open round, only once per server, and never after
// the operation has finished; the round is ready once at least its Need
// replies are counted; completing it hands every counted reply to
// Operation.Next, which opens the next round or finishes the operation. The
// paper's model (internal/model), the live round engine (internal/transport)
// and CountRounds all count through it.
//
// Because both halves are deterministic reactions, the same protocol code
// runs unchanged in the paper's model (its timed scheduler and the scripted
// one that rebuilds the proof's executions) and in the live round engine and
// replica loop.
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

// Collector is one operation's round rule (see the package doc). It holds
// the operation, its open round's number and Need, the replies counted
// there and, once the operation has finished, its result or error.
// Counting does not stop at Need: a caller that waits for more replies
// before it completes the round (model.Script counts every reply at a
// position) hands them all to Next. The zero Collector is ready for Begin;
// callers serialize their calls.
type Collector struct {
	op      Operation
	round   int     // the open round, 1-based
	need    int     // the open round's Need
	replies []Reply // the open round's counted replies
	done    bool
	result  types.Value
	err     error
}

// Begin starts op against a fleet of the given number of servers: it opens
// op's first round and returns it. The reply buffer keeps room for one
// reply per server, so counting never allocates.
func (c *Collector) Begin(op Operation, servers int) Round {
	if cap(c.replies) < servers {
		c.replies = make([]Reply, 0, servers)
	}
	*c = Collector{op: op, replies: c.replies}
	first := op.Begin()
	c.open(first)
	return first
}

func (c *Collector) open(r Round) {
	c.round, c.need, c.replies = c.round+1, r.Need, c.replies[:0]
}

// Count counts r, a reply to round round, and reports whether it counted:
// only if round is the open round, no reply from r.From is counted there
// yet, and the operation has not finished.
func (c *Collector) Count(round int, r Reply) bool {
	if c.done || round != c.round || c.Counted(r.From) {
		return false
	}
	c.replies = append(c.replies, r)
	return true
}

// Counted reports whether the open round has counted a reply from server s.
func (c *Collector) Counted(s types.ProcID) bool {
	for _, r := range c.replies {
		if r.From == s {
			return true
		}
	}
	return false
}

// Ready reports whether the open round has counted at least its Need
// replies.
func (c *Collector) Ready() bool { return len(c.replies) >= c.need }

// Complete hands the open round's counted replies to the operation's Next.
// It either opens the next round and returns it with more set, or finishes
// the operation with its result or error. An operation that neither
// finishes nor continues finishes with ErrProtocol.
func (c *Collector) Complete() (next Round, more bool) {
	n, res, done, err := c.op.Next(c.replies)
	switch {
	case err != nil:
		c.Fail(err)
	case done:
		c.done, c.result = true, res
	case n == nil:
		c.Fail(fmt.Errorf("%w: operation neither done nor continuing", ErrProtocol))
	default:
		next = *n
		c.open(next)
		return next, true
	}
	return Round{}, false
}

// Fail finishes the operation with err.
func (c *Collector) Fail(err error) { c.done, c.err = true, err }

// Reset forgets the operation, its outcome and its counted replies,
// keeping the reply buffer for the next Begin.
func (c *Collector) Reset() {
	clear(c.replies[:cap(c.replies)])
	*c = Collector{replies: c.replies[:0]}
}

// Op returns the operation, nil before Begin.
func (c *Collector) Op() Operation { return c.op }

// Round returns the open round's number (1-based, 0 before Begin); once
// the operation has finished, its last round's.
func (c *Collector) Round() int { return c.round }

// Need returns the open round's Need.
func (c *Collector) Need() int { return c.need }

// Replies returns the open round's counted replies, in counting order. The
// slice is the collector's own; a caller may reorder it before Complete.
func (c *Collector) Replies() []Reply { return c.replies }

// Done reports whether the operation has finished.
func (c *Collector) Done() bool { return c.done }

// Result returns the finished operation's result or error.
func (c *Collector) Result() (types.Value, error) { return c.result, c.err }

// CountRounds walks an Operation against a fixed set of server logics,
// delivering every round to every server in ID order and counting the
// replies in that order until the round is ready. It returns the number of
// rounds the operation took and its result. It is a convenience for unit
// tests of protocol packages (failure-free, sequential world); the model
// and the round engine provide the real execution environments.
func CountRounds(op Operation, servers []ServerLogic) (rounds int, result types.Value, err error) {
	var c Collector
	for r, more := c.Begin(op, len(servers)), true; more; r, more = c.Complete() {
		if r.Need > len(servers) {
			return c.Round(), types.Value{}, fmt.Errorf("%w: round needs %d replies, only %d servers", ErrProtocol, r.Need, len(servers))
		}
		for _, s := range servers {
			if m := s.Handle(op.Client(), r.Payload); m != nil && !c.Ready() {
				c.Count(c.Round(), Reply{From: s.ID(), Msg: m})
			}
		}
		if !c.Ready() {
			return c.Round(), types.Value{}, fmt.Errorf("%w: quorum not reached (%d < %d)", ErrProtocol, len(c.replies), r.Need)
		}
	}
	result, err = c.Result()
	return c.Round(), result, err
}
