// Package protocols resolves protocol names to implementations — the one
// switch shared by the public fastreg API and the deployable binaries
// (cmd/regserver, cmd/regstorm), so every entry point accepts exactly
// the same names.
package protocols

import (
	"errors"
	"fmt"

	"fastreg/internal/abd"
	"fastreg/internal/crucialinfo"
	"fastreg/internal/mwabd"
	"fastreg/internal/register"
	"fastreg/internal/w1r1"
	"fastreg/internal/w1r2"
	"fastreg/internal/w2r1"
)

// ErrUnknown reports an unrecognized protocol name.
var ErrUnknown = errors.New("protocols: unknown protocol")

// registry is the single source of truth: one ordered table drives both
// New and Names, so adding a protocol is one entry — not three hand-kept
// lists.
var registry = []struct {
	name string
	mk   func() register.Protocol
}{
	{"W2R2", func() register.Protocol { return mwabd.New() }},
	{"W2R1", func() register.Protocol { return w2r1.New() }},
	{"W1R2", func() register.Protocol { return w1r2.New() }},
	{"W1R1", func() register.Protocol { return w1r1.New() }},
	{"ABD", func() register.Protocol { return abd.New() }},
	{"FullInfo", func() register.Protocol { return crucialinfo.New() }},
}

// New resolves a design-space label ("W2R2", "W2R1", "W1R2", "W1R1",
// "ABD", "FullInfo") to a fresh implementation.
func New(name string) (register.Protocol, error) {
	for _, e := range registry {
		if e.name == name {
			return e.mk(), nil
		}
	}
	return nil, fmt.Errorf("%w: %q", ErrUnknown, name)
}

// Names lists the resolvable protocol names, in design-space order.
func Names() []string {
	out := make([]string, len(registry))
	for i, e := range registry {
		out[i] = e.name
	}
	return out
}
