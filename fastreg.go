// Package fastreg is a faithful, executable reproduction of
//
//	Kaile Huang, Yu Huang, Hengfeng Wei:
//	"Fine-grained Analysis on Fast Implementations of Multi-writer Atomic
//	Registers", PODC 2020 (arXiv:2001.07855).
//
// It provides every protocol in the paper's design space (Fig 2 / Table 1)
// over a simulated asynchronous client-server message-passing system, an
// atomicity (linearizability) checker for Definition 2.1, the paper's
// W2R1 fast-read algorithm (Algorithms 1 & 2), and the impossibility
// machinery of Sections 3–4 as runnable code.
//
// The three entry points:
//
//   - Open: a replicated key-value store (one atomic register per key)
//     over a configurable backend — an in-process fleet by default,
//     WithTCP for a deployed regserver fleet; both run the same
//     transport client — driven through context-first session handles
//     (Store.Writer / Store.Reader). After Store.Close, operations fail
//     with the transport's "closed" error (transport.ErrClosed);
//   - Simulation: a deterministic discrete-event run for latency and
//     adversarial-schedule experiments;
//   - the analysis functions (FastReadFeasible, ProveFastWriteImpossible,
//     FastReadBoundary) exposing the paper's results directly.
package fastreg

import (
	"errors"
	"fmt"

	"fastreg/internal/protocols"
	"fastreg/internal/quorum"
	"fastreg/internal/register"
	"fastreg/internal/types"
)

// Protocol selects a point of the design space (Fig 2).
type Protocol string

// The available protocols. W2R2 and W2R1 can be atomic (under their Table 1
// conditions); W1R2 and W1R1 are the provably impossible quadrants, kept
// runnable so their violations can be exhibited; ABD is the single-writer
// baseline; FullInfo is the Section 4.1 full-info fast-write strawman used
// by the impossibility engine.
const (
	W2R2     Protocol = "W2R2"
	W2R1     Protocol = "W2R1"
	W1R2     Protocol = "W1R2"
	W1R1     Protocol = "W1R1"
	ABD      Protocol = "ABD"
	FullInfo Protocol = "FullInfo"
)

// ErrUnknownProtocol reports an unrecognized Protocol value.
var ErrUnknownProtocol = errors.New("fastreg: unknown protocol")

// impl resolves the selector to the implementation (the switch itself
// lives in internal/protocols so cmd/regserver and the store resolve
// names identically).
func (p Protocol) impl() (register.Protocol, error) {
	impl, err := protocols.New(string(p))
	if err != nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownProtocol, p)
	}
	return impl, nil
}

// Protocols lists all selectable protocols (derived from the same table
// New resolves against, so the listing can't go stale).
func Protocols() []Protocol {
	names := protocols.Names()
	out := make([]Protocol, len(names))
	for i, n := range names {
		out[i] = Protocol(n)
	}
	return out
}

// Config is the cluster shape of the system model (Fig 1): Servers
// replicas of which at most MaxCrashes may fail, plus Readers and Writers
// clients.
type Config struct {
	Servers    int
	MaxCrashes int
	Readers    int
	Writers    int
}

// DefaultConfig is the paper's canonical configuration: S=5, t=1, W=2, R=2.
func DefaultConfig() Config { return Config{Servers: 5, MaxCrashes: 1, Readers: 2, Writers: 2} }

func (c Config) internal() quorum.Config {
	return quorum.Config{S: c.Servers, T: c.MaxCrashes, R: c.Readers, W: c.Writers}
}

// Validate reports whether the configuration is structurally sound.
func (c Config) Validate() error { return c.internal().Validate() }

// Implementable reports whether the protocol guarantees atomicity on this
// configuration — the Table 1 condition of its quadrant.
func (c Config) Implementable(p Protocol) (bool, error) {
	impl, err := p.impl()
	if err != nil {
		return false, err
	}
	return impl.Implementable(c.internal()), nil
}

// Version identifies a written value: the (ts, wid) tag of Section 5.2.
// Versions are totally ordered; a later read never observes a smaller
// version than an earlier one (atomicity).
type Version struct {
	TS     int64
	Writer int // writer index; 0 for the initial value
}

// Less reports the lexicographic tag order.
func (v Version) Less(o Version) bool {
	if v.TS != o.TS {
		return v.TS < o.TS
	}
	return v.Writer < o.Writer
}

// String renders "(ts,w)".
func (v Version) String() string { return fmt.Sprintf("(%d,w%d)", v.TS, v.Writer) }

func versionOf(val types.Value) Version {
	return Version{TS: val.Tag.TS, Writer: val.Tag.WID.Index}
}

// CheckResult is the atomicity checker's verdict on an execution.
type CheckResult struct {
	Atomic bool
	// Explanation names the violation when !Atomic, or shows a witness
	// linearization when Atomic.
	Explanation string
	// Operations is the number of completed operations checked.
	Operations int
}
