// Package protocols is the paper's design space as one table, and the
// one switch from protocol names to implementations shared by the public
// fastreg API, the harness and the deployable binaries (cmd/regserver,
// cmd/regstorm), so every entry point accepts exactly the same names.
//
// A write takes one round trip or two, and so does a read (Table 1,
// Fig 2). Each row of the table is one such pair, built from opkit's two
// writes (the one-round counter write, the two-round query-then-update
// write) and two reads (the two-round read with write-back, the one-round
// fast read), with the condition on (S, t, R, W) under which the paper
// proves it atomic. FullInfo, the crucial-info strawman of Theorem 1,
// has servers and a read of its own (internal/crucialinfo).
package protocols

import (
	"errors"
	"fmt"

	"fastreg/internal/crucialinfo"
	"fastreg/internal/opkit"
	"fastreg/internal/quorum"
	"fastreg/internal/register"
	"fastreg/internal/types"
)

// ErrUnknown reports an unrecognized protocol name.
var ErrUnknown = errors.New("protocols: unknown protocol")

type writeKind uint8

const (
	counterWrite writeKind = iota // one round: opkit.CounterWriter
	queryWrite                    // two rounds: opkit.QueryWriter
)

type readKind uint8

const (
	writeBackRead   readKind = iota // two rounds: opkit.WriteBackReader
	noWriteBackRead                 // one round, the write-back ablated: not atomic
	fastRead                        // one round: opkit.FastReader
)

// row is a protocol of the design space: its name, its write, its read,
// and the shapes on which it is atomic.
type row struct {
	name   string
	write  writeKind
	read   readKind
	atomic func(quorum.Config) bool
}

// table is Table 1 in design-space order, with ABD after it. A row has no
// state, so New hands out the row itself.
var table = []row{
	// Lynch & Shvartsman (FTCS 1997), the top of Fig 2's Hasse diagram:
	// atomic iff t < S/2 (Table 1, row 1).
	{"W2R2", queryWrite, writeBackRead, quorum.Config.MajorityOK},
	// The paper's contribution (Algorithms 1 and 2, Appendix A): atomic
	// iff R < S/t − 2 (Section 5).
	{"W2R1", queryWrite, fastRead, func(c quorum.Config) bool { return c.FastReadOK() && c.MajorityOK() }},
	// The naive fast write: no W1R2 implementation is atomic with W ≥ 2,
	// R ≥ 2 and t ≥ 1 (Theorem 1). Uncoordinated writer counters tag two
	// sequential writes of different writers in the wrong order even with
	// t = 0, so only the single-writer case, where it is ABD, is atomic.
	{"W1R2", counterWrite, writeBackRead, func(c quorum.Config) bool { return c.W <= 1 && c.MajorityOK() }},
	// Dutta, Guerraoui, Levy & Vukolić (SIAM J. Comput. 2010), reference
	// [12]: atomic iff W = 1 and R < S/t − 2; never with W ≥ 2 (Table 1,
	// row 4).
	{"W1R1", counterWrite, fastRead, func(c quorum.Config) bool { return c.W == 1 && c.FastReadOK() && c.MajorityOK() }},
	// Attiya, Bar-Noy & Dolev (JACM 1995), the single-writer ancestor of
	// every row: atomic iff W = 1 and t < S/2.
	{"ABD", counterWrite, writeBackRead, func(c quorum.Config) bool { return c.W == 1 && c.MajorityOK() }},
}

// fullInfo names crucialinfo's candidate, the entry after the table.
const fullInfo = "FullInfo"

// noWriteBack is W2R2 with the read's write-back removed: a one-round
// read that exhibits new-old inversions, so it is never atomic. It exists
// so cmd/repro can price the write-back (EXPERIMENTS.md).
var noWriteBack = row{"W2R1-nowb", queryWrite, noWriteBackRead, func(quorum.Config) bool { return false }}

// New resolves a design-space label ("W2R2", "W2R1", "W1R2", "W1R1",
// "ABD", "FullInfo") to an implementation. FullInfo's is fresh: its
// fields are settable.
func New(name string) (register.Protocol, error) {
	for i := range table {
		if table[i].name == name {
			return &table[i], nil
		}
	}
	if name == fullInfo {
		return crucialinfo.New(), nil
	}
	return nil, fmt.Errorf("%w: %q", ErrUnknown, name)
}

// Must is New for a name known to resolve; it panics on any other.
func Must(name string) register.Protocol {
	p, err := New(name)
	if err != nil {
		panic(err)
	}
	return p
}

// NoWriteBack returns the write-back ablation "W2R1-nowb", which New does
// not resolve.
func NoWriteBack() register.Protocol { return &noWriteBack }

// Names lists the resolvable protocol names, in design-space order.
func Names() []string {
	out := make([]string, 0, len(table)+1)
	for _, r := range table {
		out = append(out, r.name)
	}
	return append(out, fullInfo)
}

// Name implements register.Protocol.
func (r *row) Name() string { return r.name }

// WriteRounds implements register.Protocol.
func (r *row) WriteRounds() int {
	if r.write == queryWrite {
		return 2
	}
	return 1
}

// ReadRounds implements register.Protocol.
func (r *row) ReadRounds() int {
	if r.read == writeBackRead {
		return 2
	}
	return 1
}

// Implementable implements register.Protocol: the row's condition.
func (r *row) Implementable(cfg quorum.Config) bool { return r.atomic(cfg) }

// NewServer implements register.Protocol: a fast read needs Algorithm 2's
// valuevector server, with a dead-value floor over the shape's readers;
// the other reads, the max-value store.
func (r *row) NewServer(id types.ProcID, cfg quorum.Config) register.ServerLogic {
	if r.read == fastRead {
		return opkit.NewVectorServer(id, cfg.R)
	}
	return opkit.NewStoreServer(id)
}

// NewWriter implements register.Protocol.
func (r *row) NewWriter(id types.ProcID, cfg quorum.Config) register.Writer {
	if r.write == queryWrite {
		return opkit.NewQueryWriter(id, cfg)
	}
	return opkit.NewCounterWriter(id, cfg)
}

// NewReader implements register.Protocol.
func (r *row) NewReader(id types.ProcID, cfg quorum.Config) register.Reader {
	if r.read == fastRead {
		return opkit.NewFastReader(id, cfg)
	}
	return opkit.NewWriteBackReader(id, cfg, r.read == writeBackRead)
}
