// Package byzantine explores the paper's Section 5.2 remark that the W2R1
// implementation "can be extended to further tolerate Byzantine failures"
// (following the single-writer treatment of Dutta et al. [12]).
//
// Two pieces are provided:
//
//   - LyingServer: a Byzantine wrapper around any server logic that
//     fabricates a maximal-tag value in its replies. The two-round W2R2
//     read falls for it immediately (its round 1 maximizes over single
//     acks), while the W2R1 fast read's admissibility predicate — which
//     demands a quorum of witnesses per value — already rejects a single
//     liar's forgery: value authenticity comes with the algorithm.
//   - Vouched fast reads: the first step of the Byzantine extension, value
//     authenticity. A reader only considers values reported by at least
//     t+1 servers, which ≤ t Byzantine servers cannot fabricate. This
//     restores "reads return only written values"; full Byzantine
//     atomicity needs the rest of [12]'s machinery (echo phases) and is
//     out of scope, as in the paper.
package byzantine

import (
	"fastreg/internal/proto"
	"fastreg/internal/quorum"
	"fastreg/internal/register"
	"fastreg/internal/types"
)

// LyingServer wraps a server and injects a fabricated value with a very
// large tag into every FastReadAck, QueryAck and TagAck it sends. It
// models a Byzantine replica trying to poison readers; it still processes
// updates normally so the rest of the execution proceeds.
type LyingServer struct {
	inner register.ServerLogic
	forge types.Value // forged QueryAcks and TagAcks point here (or at its Tag): never written after NewLyingServer
}

// NewLyingServer wraps inner; the forged value claims timestamp 1<<40 from
// a writer that does not exist.
func NewLyingServer(inner register.ServerLogic) *LyingServer {
	return &LyingServer{
		inner: inner,
		forge: types.Value{
			Tag:  types.Tag{TS: 1 << 40, WID: types.Writer(999)},
			Data: "FORGED",
		},
	}
}

// ID implements register.ServerLogic.
func (s *LyingServer) ID() types.ProcID { return s.inner.ID() }

// CurrentValue implements register.ServerLogic.
func (s *LyingServer) CurrentValue() types.Value { return s.inner.CurrentValue() }

// Forged returns the value the server fabricates.
func (s *LyingServer) Forged() types.Value { return s.forge }

// Handle implements register.ServerLogic, poisoning read-path replies.
func (s *LyingServer) Handle(from types.ProcID, m proto.Message) proto.Message {
	reply := s.inner.Handle(from, m)
	switch r := reply.(type) {
	case proto.QueryAck:
		r.Val = &s.forge
		return r
	case proto.TagAck:
		r.Tag = &s.forge.Tag
		return r
	case proto.FastReadAck:
		// The inner server's reply is its own state (a frozen vector):
		// clip it so the append copies and the forgery stays in this reply.
		r.Vector = append(r.Vector[:len(r.Vector):len(r.Vector)], proto.VectorEntry{
			Val: s.forge,
			// The liar claims everyone has seen it, maximizing the chance
			// the admissibility predicate accepts it.
			Updated: allClients(from),
		})
		return r
	default:
		return reply
	}
}

func allClients(from types.ProcID) []types.ProcID {
	ids := []types.ProcID{from}
	for i := 1; i <= 4; i++ {
		ids = append(ids, types.Writer(i), types.Reader(i))
	}
	return proto.NormalizeUpdated(ids)
}

// Liars wraps p so that the named replicas (1-based indices) run their
// server logic behind a LyingServer — the deployment seam that puts the
// Byzantine model on the wire: regserver -byzantine wraps its own
// replica, and scenario runners hosting a fleet in-process wrap the
// subset a spec marks Byzantine. Clients, writers, readers and the
// protocol's name are untouched (a liar does not announce itself), so a
// mixed fleet's capture logs still merge under one protocol.
func Liars(p register.Protocol, replicas ...int) register.Protocol {
	liars := make(map[types.ProcID]bool, len(replicas))
	for _, i := range replicas {
		liars[types.Server(i)] = true
	}
	return &liarProtocol{Protocol: p, liars: liars}
}

type liarProtocol struct {
	register.Protocol
	liars map[types.ProcID]bool
}

// NewServer implements register.Protocol, wrapping the marked replicas.
func (p *liarProtocol) NewServer(id types.ProcID, cfg quorum.Config) register.ServerLogic {
	s := p.Protocol.NewServer(id, cfg)
	if p.liars[id] {
		return NewLyingServer(s)
	}
	return s
}

// VouchedProtocol wraps the W2R1 protocol with value authenticity: its
// readers drop any value reported by at most t servers before running the
// admissibility selection. With at most t Byzantine servers, a fabricated
// value can appear in at most t replies, so it never survives the filter;
// genuine values a reader might return are admissible with degree ≥ 1,
// which already requires S − a·t ≥ t+1 honest reports under the fast-read
// feasibility condition.
type VouchedProtocol struct {
	register.Protocol
	t int
}

// NewVouched wraps the protocol for a cluster tolerating t faulty servers.
func NewVouched(p register.Protocol, t int) *VouchedProtocol {
	return &VouchedProtocol{Protocol: p, t: t}
}

// Name implements register.Protocol.
func (p *VouchedProtocol) Name() string { return p.Protocol.Name() + "+vouch" }

// NewReader implements register.Protocol: the inner reader's operations are
// wrapped with the vouching filter.
func (p *VouchedProtocol) NewReader(id types.ProcID, cfg quorum.Config) register.Reader {
	return &vouchedReader{inner: p.Protocol.NewReader(id, cfg), t: p.t}
}

type vouchedReader struct {
	inner register.Reader
	t     int
}

func (r *vouchedReader) ID() types.ProcID { return r.inner.ID() }

func (r *vouchedReader) ReadOp() register.Operation {
	return &vouchedRead{inner: r.inner.ReadOp(), t: r.t}
}

// vouchedRead filters each round's replies before the inner operation sees
// them: values present in ≤ t fast-read replies are removed everywhere.
type vouchedRead struct {
	inner register.Operation
	t     int
}

func (o *vouchedRead) Client() types.ProcID  { return o.inner.Client() }
func (o *vouchedRead) Kind() types.OpKind    { return o.inner.Kind() }
func (o *vouchedRead) Arg() types.Value      { return o.inner.Arg() }
func (o *vouchedRead) Begin() register.Round { return o.inner.Begin() }

func (o *vouchedRead) Next(replies []register.Reply) (*register.Round, types.Value, bool, error) {
	return o.inner.Next(FilterUnvouched(replies, o.t))
}

// FilterUnvouched removes from FastReadAck replies every value reported by
// at most t servers and keeps each reply's floor, so vouched readers still
// drop dead values. Other reply kinds pass through unchanged.
func FilterUnvouched(replies []register.Reply, t int) []register.Reply {
	counts := make(map[types.Value]int)
	for _, rep := range replies {
		if ack, ok := rep.Msg.(proto.FastReadAck); ok {
			for _, e := range ack.Vector {
				counts[e.Val]++
			}
		}
	}
	out := make([]register.Reply, 0, len(replies))
	for _, rep := range replies {
		ack, ok := rep.Msg.(proto.FastReadAck)
		if !ok {
			out = append(out, rep)
			continue
		}
		kept := make([]proto.VectorEntry, 0, len(ack.Vector))
		for _, e := range ack.Vector {
			if counts[e.Val] > t || e.Val.IsInitial() {
				kept = append(kept, e.Clone())
			}
		}
		out = append(out, register.Reply{From: rep.From, Msg: proto.FastReadAck{Vector: kept, Floor: ack.Floor}})
	}
	return out
}

// Compile-time interface checks.
var (
	_ register.ServerLogic = (*LyingServer)(nil)
	_ register.Protocol    = (*VouchedProtocol)(nil)
	_ register.Protocol    = (*liarProtocol)(nil)
	_ register.Operation   = (*vouchedRead)(nil)
)
