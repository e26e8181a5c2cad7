// Package mwabd implements the W2R2 multi-writer atomic register of Lynch &
// Shvartsman (FTCS 1997), the top of the paper's design-space Hasse diagram
// (Fig 2) and the baseline the W2R1 algorithm is derived from.
//
// Write: round 1 queries all servers for the maximal timestamp (a TagQuery,
// answered with tags alone); round 2 updates all servers with (maxTS+1,
// wid), maxTS also counting the writer's own last timestamp on the
// register, so an abandoned write's tag is never reused. Read: round 1 queries and picks
// the maximal value; round 2 writes it back. Both operations wait for S − t
// replies per round; atomicity holds iff t < S/2 (Table 1, row 1).
package mwabd

import (
	"fastreg/internal/opkit"
	"fastreg/internal/quorum"
	"fastreg/internal/register"
	"fastreg/internal/types"
)

// Protocol is the W2R2 implementation. The zero value is ready to use.
type Protocol struct {
	// DisableWriteBack removes the read's second round (ablation only: the
	// resulting one-round read is NOT atomic; EXPERIMENTS.md prices it).
	DisableWriteBack bool
}

// New returns the W2R2 protocol.
func New() *Protocol { return &Protocol{} }

// NewNoWriteBack returns the ablation variant whose read skips the
// write-back round.
func NewNoWriteBack() *Protocol { return &Protocol{DisableWriteBack: true} }

// Name implements register.Protocol.
func (p *Protocol) Name() string {
	if p.DisableWriteBack {
		return "W2R1-nowb"
	}
	return "W2R2"
}

// WriteRounds implements register.Protocol.
func (p *Protocol) WriteRounds() int { return 2 }

// ReadRounds implements register.Protocol.
func (p *Protocol) ReadRounds() int {
	if p.DisableWriteBack {
		return 1
	}
	return 2
}

// Implementable implements register.Protocol: atomic iff t < S/2, and only
// with the write-back in place.
func (p *Protocol) Implementable(cfg quorum.Config) bool {
	return !p.DisableWriteBack && cfg.MajorityOK()
}

// NewServer implements register.Protocol.
func (p *Protocol) NewServer(id types.ProcID, _ quorum.Config) register.ServerLogic {
	return opkit.NewStoreServer(id)
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
	id        types.ProcID
	need      int
	writeBack bool
}

// NewReader implements register.Protocol.
func (p *Protocol) NewReader(id types.ProcID, cfg quorum.Config) register.Reader {
	return &reader{id: id, need: cfg.ReplyQuorum(), writeBack: !p.DisableWriteBack}
}

func (r *reader) ID() types.ProcID { return r.id }

func (r *reader) ReadOp() register.Operation {
	if r.writeBack {
		return opkit.NewReadWriteBack(r.id, r.need)
	}
	return opkit.NewReadNoWriteBack(r.id, r.need)
}
