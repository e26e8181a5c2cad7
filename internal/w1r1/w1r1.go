// Package w1r1 implements the fast (one-round write, one-round read)
// register of Dutta, Guerraoui, Levy & Vukolić (SIAM J. Comput. 2010),
// reference [12] of the paper.
//
// In the single-writer case it is atomic iff R < S/t − 2 — the result the
// paper's W2R1 algorithm extends to multiple writers. In the multi-writer
// case (W ≥ 2) it is never atomic (Table 1, row 4, proved in [12]); the
// protocol still runs so the harness can exhibit its violations.
//
// Write: the writer bumps a private timestamp and updates all servers in
// one round. Read: the one-round valQueue/admissible read shared with the
// W2R1 protocol (internal/opkit).
package w1r1

import (
	"fastreg/internal/opkit"
	"fastreg/internal/quorum"
	"fastreg/internal/register"
	"fastreg/internal/types"
)

// Protocol is the fast read-write implementation.
type Protocol struct{}

// New returns the W1R1 protocol.
func New() *Protocol { return &Protocol{} }

// Name implements register.Protocol.
func (*Protocol) Name() string { return "W1R1" }

// WriteRounds implements register.Protocol.
func (*Protocol) WriteRounds() int { return 1 }

// ReadRounds implements register.Protocol.
func (*Protocol) ReadRounds() int { return 1 }

// Implementable implements register.Protocol: single writer and the fast
// bound R < S/t − 2 ([12]).
func (*Protocol) Implementable(cfg quorum.Config) bool {
	return cfg.W == 1 && cfg.FastReadOK() && cfg.MajorityOK()
}

// NewServer implements register.Protocol: the valuevector server W2R1
// uses, with a dead-value floor over the shape's readers.
func (*Protocol) NewServer(id types.ProcID, cfg quorum.Config) register.ServerLogic {
	return opkit.NewVectorServer(id, cfg.R)
}

type writer struct {
	id   types.ProcID
	need int
	ts   int64
}

// NewWriter implements register.Protocol.
func (*Protocol) NewWriter(id types.ProcID, cfg quorum.Config) register.Writer {
	return &writer{id: id, need: cfg.ReplyQuorum()}
}

func (w *writer) ID() types.ProcID { return w.id }

func (w *writer) WriteOp(data string) register.Operation {
	w.ts++
	val := types.Value{Tag: types.Tag{TS: w.ts, WID: w.id}, Data: data}
	return opkit.NewDirectWrite(w.id, val, w.need)
}

type reader struct {
	id    types.ProcID
	need  int
	state *opkit.ReaderState
	cfg   opkit.AdmissibleConfig
}

// NewReader implements register.Protocol.
func (*Protocol) NewReader(id types.ProcID, cfg quorum.Config) register.Reader {
	return &reader{
		id:    id,
		need:  cfg.ReplyQuorum(),
		state: opkit.NewReaderState(),
		cfg:   opkit.AdmissibleConfig{S: cfg.S, T: cfg.T, MaxDegree: cfg.MaxDegree()},
	}
}

func (r *reader) ID() types.ProcID { return r.id }

func (r *reader) ReadOp() register.Operation {
	return opkit.NewFastReadOp(r.id, r.state, r.cfg, r.need)
}
