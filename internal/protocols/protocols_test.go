package protocols

import (
	"errors"
	"math"
	"testing"

	"fastreg/internal/model"
	"fastreg/internal/quorum"
	"fastreg/internal/register"
	"fastreg/internal/types"
)

func cfg(s, t, r, w int) quorum.Config { return quorum.Config{S: s, T: t, R: r, W: w} }

func TestMetadata(t *testing.T) {
	for _, c := range []struct {
		p           register.Protocol
		name        string
		write, read int
	}{
		{Must("W2R2"), "W2R2", 2, 2},
		{Must("W2R1"), "W2R1", 2, 1},
		{Must("W1R2"), "W1R2", 1, 2},
		{Must("W1R1"), "W1R1", 1, 1},
		{Must("ABD"), "ABD", 1, 2},
		{NoWriteBack(), "W2R1-nowb", 2, 1},
	} {
		t.Run(c.name, func(t *testing.T) {
			if p := c.p; p.Name() != c.name || p.WriteRounds() != c.write || p.ReadRounds() != c.read {
				t.Errorf("metadata: %s W%d R%d, want %s W%d R%d", p.Name(), p.WriteRounds(), p.ReadRounds(), c.name, c.write, c.read)
			}
		})
	}
	if _, err := New("W2R1-nowb"); !errors.Is(err, ErrUnknown) {
		t.Errorf("the ablation resolves by name: err %v", err)
	}
}

// TestImplementableClaims holds each protocol's condition to the explorer:
// on every small shape the protocol claims is atomic, no execution of the
// skeleton {w1, w2 if W = 2, r1} through the depth violates atomicity.
func TestImplementableClaims(t *testing.T) {
	depth := 2
	if raceEnabled {
		depth = 1
	}
	ps := []register.Protocol{NoWriteBack()}
	for _, name := range Names() {
		ps = append(ps, Must(name))
	}
	explored := 0
	for _, p := range ps {
		for s := 3; s <= 4; s++ {
			for tt := 0; tt <= 1; tt++ {
				for w := 1; w <= 2; w++ {
					for r := 1; r <= 2; r++ {
						c := cfg(s, tt, r, w)
						if c.Validate() != nil || !p.Implementable(c) {
							continue
						}
						clients := []types.ProcID{types.Writer(1)}
						if w == 2 {
							clients = append(clients, types.Writer(2))
						}
						sk := model.Skeleton{Protocol: p, Config: c, Clients: append(clients, types.Reader(1))}
						explored++
						if v := sk.Explore(depth, math.MaxInt).Violation; v != nil {
							t.Errorf("%s claims %v atomic, but an execution at deviation %d violates it (%s):\n%s",
								p.Name(), c, v.Deviation, v.Result.Violation.Code, v.History)
						}
					}
				}
			}
		}
	}
	if explored == 0 {
		t.Fatal("no protocol claims any shape")
	}
}
