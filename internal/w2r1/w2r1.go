// Package w2r1 implements the paper's contribution: the fast-read
// multi-writer atomic register of Algorithms 1 & 2 (Appendix A), atomic iff
// R < S/t − 2 (Section 5).
//
// Write (two rounds): query all servers for the maximal timestamp (a
// TagQuery, answered with tags alone), then update all servers with
// (maxTS+1, wid) — equal timestamps therefore imply concurrent writes, so
// the lexicographic tie-break by writer ID is safe (Section 5.2). maxTS
// also counts the writer's own last timestamp on the register: a write it
// abandoned may have reached only servers the next query misses, and the
// two must not share a tag.
//
// Read (one round): send the reader's valQueue to all servers; each server
// merges it into its valuevector, recording the reader in the updated set of
// every queued value, and replies with the vector. The vector and the
// valQueue hold only values some read may still return: a replica knows
// the shape's R readers and drops values below the smallest tag any of them
// still holds (opkit's "Dead values"), which changes no operation's result.
// The reader returns
// the largest value admissible with some degree a ∈ [1, R+1], where
// admissible(v, Msg, a) requires at least S − a·t replies carrying v whose
// updated sets share ≥ a clients (Algorithm 1, line 32). Properties
// MWA0–MWA4 (Appendix A.1) make this atomic; the tests verify each.
package w2r1

import (
	"fastreg/internal/opkit"
	"fastreg/internal/quorum"
	"fastreg/internal/register"
	"fastreg/internal/types"
)

// Protocol is the W2R1 fast-read implementation.
type Protocol struct {
	// Greedy switches the admissibility test to the approximate greedy
	// variant (ablation only; can return stale-but-admissible values more
	// often by missing witnesses).
	Greedy bool
}

// New returns the W2R1 protocol.
func New() *Protocol { return &Protocol{} }

// Name implements register.Protocol.
func (p *Protocol) Name() string { return "W2R1" }

// WriteRounds implements register.Protocol.
func (p *Protocol) WriteRounds() int { return 2 }

// ReadRounds implements register.Protocol.
func (p *Protocol) ReadRounds() int { return 1 }

// Implementable implements register.Protocol: the paper's necessary and
// sufficient condition R < S/t − 2.
func (p *Protocol) Implementable(cfg quorum.Config) bool {
	return cfg.FastReadOK() && cfg.MajorityOK()
}

// NewServer implements register.Protocol: the Algorithm 2 valuevector
// server, with a dead-value floor over the shape's readers.
func (p *Protocol) NewServer(id types.ProcID, cfg quorum.Config) register.ServerLogic {
	return opkit.NewVectorServer(id, cfg.R)
}

type writer struct {
	id   types.ProcID
	need int
	ts   int64 // the largest timestamp this writer's ops have used
}

// NewWriter implements register.Protocol.
func (p *Protocol) NewWriter(id types.ProcID, cfg quorum.Config) register.Writer {
	return &writer{id: id, need: cfg.ReplyQuorum()}
}

func (w *writer) ID() types.ProcID { return w.id }

func (w *writer) WriteOp(data string) register.Operation {
	return opkit.NewQueryThenUpdateWrite(w.id, data, w.need, &w.ts)
}

type reader struct {
	id    types.ProcID
	need  int
	state *opkit.ReaderState
	cfg   opkit.AdmissibleConfig
}

// NewReader implements register.Protocol. The reader's valQueue persists
// across its operations (Algorithm 1, lines 16–17).
func (p *Protocol) NewReader(id types.ProcID, cfg quorum.Config) register.Reader {
	return &reader{
		id:    id,
		need:  cfg.ReplyQuorum(),
		state: opkit.NewReaderState(),
		cfg:   opkit.AdmissibleConfig{S: cfg.S, T: cfg.T, MaxDegree: cfg.MaxDegree(), Greedy: p.Greedy},
	}
}

func (r *reader) ID() types.ProcID { return r.id }

func (r *reader) ReadOp() register.Operation {
	return opkit.NewFastReadOp(r.id, r.state, r.cfg, r.need)
}
