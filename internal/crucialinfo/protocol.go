package crucialinfo

import (
	"fmt"
	"sort"

	"fastreg/internal/proto"
	"fastreg/internal/quorum"
	"fastreg/internal/register"
	"fastreg/internal/types"
)

// Protocol is the best-effort full-info fast-write candidate: one-round
// writes, two-round reads over append-only-log servers. The read decides by
// majority vote over the per-server receipt orders — the strongest decision
// rule the crucial-info model allows. Theorem 1 says no such protocol can
// be atomic; the chain engine (internal/chains) exhibits the violating
// executions.
type Protocol struct {
	// FlipTrigger, when non-zero, builds FlippingServers for the servers in
	// FlipServers, triggered by that reader's first round-trip — the
	// adversary of the sieve analysis (Section 4.2).
	FlipTrigger types.ProcID
	// FlipServers is the set Σ1 of servers whose crucial info the trigger
	// affects.
	FlipServers map[types.ProcID]bool
	// ReadRoundTrips is the read's round count k ≥ 2 (default 2). Rounds
	// 2…k are pure queries; the paper's Section 3 note says the W1Rk
	// impossibility reduces to W1R2 by treating rounds 2…k as one — the
	// chain engine exercises exactly that.
	ReadRoundTrips int
}

// New returns the plain full-info W1R2 candidate.
func New() *Protocol { return &Protocol{} }

// NewKRound returns the W1Rk candidate whose reads take k ≥ 2 round trips.
func NewKRound(k int) *Protocol {
	if k < 2 {
		panic("crucialinfo: NewKRound needs k ≥ 2")
	}
	return &Protocol{ReadRoundTrips: k}
}

// NewWithFlips returns the adversarial variant: the servers in sigma1 flip
// their crucial info when trigger's first read round-trip arrives.
func NewWithFlips(trigger types.ProcID, sigma1 []types.ProcID) *Protocol {
	set := make(map[types.ProcID]bool, len(sigma1))
	for _, s := range sigma1 {
		set[s] = true
	}
	return &Protocol{FlipTrigger: trigger, FlipServers: set}
}

// Name implements register.Protocol.
func (p *Protocol) Name() string {
	return fmt.Sprintf("W1R%d-fullinfo", p.ReadRounds())
}

// WriteRounds implements register.Protocol.
func (p *Protocol) WriteRounds() int { return 1 }

// ReadRounds implements register.Protocol.
func (p *Protocol) ReadRounds() int {
	if p.ReadRoundTrips < 2 {
		return 2
	}
	return p.ReadRoundTrips
}

// Implementable implements register.Protocol: never — this is the Theorem 1
// strawman (and even in degenerate configurations it makes no atomicity
// promise).
func (p *Protocol) Implementable(quorum.Config) bool { return false }

// NewServer implements register.Protocol.
func (p *Protocol) NewServer(id types.ProcID, _ quorum.Config) register.ServerLogic {
	if p.FlipServers[id] {
		return NewFlippingServer(id, p.FlipTrigger)
	}
	return NewLogServer(id)
}

type writer struct {
	id   types.ProcID
	need int
	ts   int64
}

// NewWriter implements register.Protocol.
func (p *Protocol) NewWriter(id types.ProcID, cfg quorum.Config) register.Writer {
	return &writer{id: id, need: cfg.ReplyQuorum()}
}

func (w *writer) ID() types.ProcID { return w.id }

func (w *writer) WriteOp(data string) register.Operation {
	w.ts++
	val := types.Value{Tag: types.Tag{TS: w.ts, WID: w.id}, Data: data}
	return &fastWrite{client: w.id, val: val, need: w.need}
}

// fastWrite is the one-round full-info write.
type fastWrite struct {
	client types.ProcID
	val    types.Value // the Update points here: never written
	need   int
}

func (w *fastWrite) Client() types.ProcID { return w.client }
func (w *fastWrite) Kind() types.OpKind   { return types.OpWrite }
func (w *fastWrite) Arg() types.Value     { return w.val }

func (w *fastWrite) Begin() register.Round {
	return register.Round{Payload: proto.Update{Val: &w.val}, Need: w.need}
}

func (w *fastWrite) Next(replies []register.Reply) (*register.Round, types.Value, bool, error) {
	for _, r := range replies {
		if _, ok := r.Msg.(proto.UpdateAck); !ok {
			return nil, types.Value{}, false, register.BadReply("full-info write", r.Msg)
		}
	}
	return nil, w.val, true, nil
}

type reader struct {
	id     types.ProcID
	need   int
	rounds int
}

// NewReader implements register.Protocol.
func (p *Protocol) NewReader(id types.ProcID, cfg quorum.Config) register.Reader {
	return &reader{id: id, need: cfg.ReplyQuorum(), rounds: p.ReadRounds()}
}

func (r *reader) ID() types.ProcID { return r.id }

func (r *reader) ReadOp() register.Operation {
	return &fullInfoRead{client: r.id, need: r.need, rounds: r.rounds}
}

// fullInfoRead is the k-round full-info read (k ≥ 2): round 1 leaves a
// marker and collects logs (the blind round whose effect Section 4.2
// sieves); rounds 2…k query again and the decision uses the final round's
// logs.
type fullInfoRead struct {
	client types.ProcID
	need   int
	rounds int
	phase  int
	next   register.Round // what Next returns a pointer to
}

func (r *fullInfoRead) Client() types.ProcID { return r.client }
func (r *fullInfoRead) Kind() types.OpKind   { return types.OpRead }
func (r *fullInfoRead) Arg() types.Value     { return types.Value{} }

func (r *fullInfoRead) Begin() register.Round {
	r.phase = 1
	return register.Round{Payload: proto.FastRead{}, Need: r.need}
}

func (r *fullInfoRead) Next(replies []register.Reply) (*register.Round, types.Value, bool, error) {
	if r.phase < 1 || r.phase > r.rounds {
		return nil, types.Value{}, false, fmt.Errorf("%w: full-info read in phase %d of %d", register.ErrProtocol, r.phase, r.rounds)
	}
	acks := make([]proto.LogAck, 0, len(replies))
	for _, rep := range replies {
		ack, ok := rep.Msg.(proto.LogAck)
		if !ok {
			return nil, types.Value{}, false, register.BadReply(fmt.Sprintf("full-info read round %d", r.phase), rep.Msg)
		}
		acks = append(acks, ack)
	}
	if r.phase < r.rounds {
		r.phase++
		r.next = register.Round{Payload: proto.Query{}, Need: r.need}
		return &r.next, types.Value{}, false, nil
	}
	return nil, DecideMajority(acks), true, nil
}

// DecideMajority is the full-info read's decision rule: each log votes for
// the last distinct written value it received ("the write that overwrote
// the others"); the value with most votes wins, ties broken by tag order.
// With all logs agreeing ("12" everywhere or "21" everywhere) this matches
// what atomicity forces; under mixed orders it is one consistent guess —
// and no guess can be right in every execution, which is the theorem.
func DecideMajority(acks []proto.LogAck) types.Value {
	votes := make(map[types.Value]int)
	for _, ack := range acks {
		vals := ack.WrittenValues()
		var last types.Value
		if len(vals) > 0 {
			last = vals[len(vals)-1]
		} else {
			last = types.InitialValue()
		}
		votes[last]++
	}
	if len(votes) == 0 {
		return types.InitialValue()
	}
	cands := make([]types.Value, 0, len(votes))
	for v := range votes {
		cands = append(cands, v)
	}
	sort.Slice(cands, func(i, j int) bool {
		if votes[cands[i]] != votes[cands[j]] {
			return votes[cands[i]] > votes[cands[j]]
		}
		return cands[j].Less(cands[i]) // tie: larger tag first
	})
	return cands[0]
}
