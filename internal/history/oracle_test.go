package history

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"fastreg/internal/types"
	"fastreg/internal/vclock"
)

// oracle is the recorder's specification: a plain []Op log with the
// Recorder's semantics and none of its storage tricks. An op's index in
// ops plays the part of its Ref.
type oracle struct {
	clock vclock.Clock
	ops   []Op
	sunk  []Op
}

func (o *oracle) invoke(t vclock.Time, client types.ProcID, opID uint64, kind types.OpKind, val types.Value) {
	o.ops = append(o.ops, Op{Client: client, OpID: opID, Kind: kind, Invoke: t, Value: val})
}

func (o *oracle) respond(i int, t vclock.Time, val types.Value, err error) {
	op := &o.ops[i]
	op.Response = t
	op.Err = err
	if err == nil {
		op.Value = val
	}
	o.sunk = append(o.sunk, *op)
}

func (o *oracle) updateValue(i int, val types.Value) {
	if o.ops[i].Response == 0 {
		o.ops[i].Value = val
	}
}

func (o *oracle) setEpoch(i int, epoch uint64) {
	if o.ops[i].Response == 0 {
		o.ops[i].Epoch = epoch
	}
}

// The palettes a program draws its arguments from: indexes at the edges
// of a record's uint32, payloads that repeat (so values share), three
// errors of which one wraps another.
var (
	oracleIndexes = []int{0, 1, 2, 7, math.MaxInt32, math.MaxUint32, math.MaxUint32 + 1, math.MaxInt, -1}
	oracleRoles   = []types.Role{types.RoleReader, types.RoleWriter, types.RoleServer, types.RoleInvalid}
	oraclePayload = []string{"", "x", "y", strings.Repeat("z", 256)}
	errOracleA    = errors.New("quorum unreachable")
	errOracleB    = errors.New("timeout")
	oracleErrs    = []error{errOracleA, errOracleB, fmt.Errorf("round 2: %w", errOracleA)}
)

// program decodes a byte string into recorder calls; an exhausted
// program reads zeros.
type program []byte

func (p *program) next() int {
	if len(*p) == 0 {
		return 0
	}
	b := (*p)[0]
	*p = (*p)[1:]
	return int(b)
}

func (p *program) pick(n int) int { return p.next() % n }

func (p *program) proc() types.ProcID {
	return types.ProcID{Role: oracleRoles[p.pick(len(oracleRoles))], Index: oracleIndexes[p.pick(len(oracleIndexes))]}
}

// value draws a tag timestamp from a few values (so tags repeat) and a
// payload from the palette, always as a fresh copy, the way every reader
// decodes its own. Equal tags with unequal payloads are forged values.
func (p *program) value() types.Value {
	return types.Value{
		Tag:  types.Tag{TS: int64(p.pick(4)), WID: p.proc()},
		Data: strings.Clone(oraclePayload[p.pick(len(oraclePayload))]),
	}
}

func (p *program) kind() types.OpKind { return []types.OpKind{types.OpRead, types.OpWrite}[p.pick(2)] }

func (p *program) err() error {
	if i := p.pick(len(oracleErrs) + 1); i < len(oracleErrs) {
		return oracleErrs[i]
	}
	return nil
}

// runOracle drives one Recorder and the oracle with the calls prog
// encodes and fails at the first step where their histories, or the
// snapshots their sinks were handed, differ.
func runOracle(t *testing.T, prog program) {
	t.Helper()
	rec := NewRecorder(&vclock.Clock{})
	var sunk []Op
	rec.SetSink(func(o Op) { sunk = append(sunk, o) })
	var or oracle
	var refs []Ref
	for step := 0; len(prog) > 0; step++ {
		call := prog.pick(8)
		if call >= 2 && len(refs) == 0 {
			continue
		}
		var i int
		if call >= 2 {
			i = prog.pick(len(refs))
		}
		var desc string
		switch call {
		case 0, 1: // Invoke, InvokeAt
			client, opID, kind, val := prog.proc(), uint64(prog.next()), prog.kind(), prog.value()
			if call == 0 {
				refs = append(refs, rec.Invoke(client, opID, kind, val))
				or.invoke(or.clock.Tick(), client, opID, kind, val)
			} else {
				at := or.clock.Now() + vclock.Time(prog.pick(3)) // may lie behind the clock
				refs = append(refs, rec.InvokeAt(at, client, opID, kind, val))
				or.clock.AdvanceTo(at)
				or.invoke(at, client, opID, kind, val)
			}
			desc = fmt.Sprintf("invoke %s#%d %s %s", client, opID, kind, val)
		case 2: // Respond
			val, err := prog.value(), prog.err()
			rec.Respond(refs[i], val, err)
			or.respond(i, or.clock.Tick(), val, err)
			desc = fmt.Sprintf("respond op %d %s err %v", i, val, err)
		case 3: // RespondAt
			at := or.clock.Now() + vclock.Time(prog.pick(3))
			val, err := prog.value(), prog.err()
			rec.RespondAt(at, refs[i], val, err)
			or.clock.AdvanceTo(at)
			or.respond(i, at, val, err)
			desc = fmt.Sprintf("respond op %d at %d %s err %v", i, at, val, err)
		case 4: // RespondFailed
			kind, arg, err := prog.kind(), prog.value(), prog.err()
			if err == nil {
				err = errOracleB
			}
			rec.RespondFailed(refs[i], kind, arg, err)
			if kind == types.OpWrite {
				or.updateValue(i, arg)
			}
			or.respond(i, or.clock.Tick(), types.Value{}, err)
			desc = fmt.Sprintf("fail op %d %s %s err %v", i, kind, arg, err)
		case 5: // SetEpoch
			epoch := uint64(prog.next())
			rec.SetEpoch(refs[i], epoch)
			or.setEpoch(i, epoch)
			desc = fmt.Sprintf("epoch op %d %d", i, epoch)
		default: // UpdateValue
			val := prog.value()
			rec.UpdateValue(refs[i], val)
			or.updateValue(i, val)
			desc = fmt.Sprintf("update op %d %s", i, val)
		}
		if err := sameOps("history", rec.History().Ops, or.ops); err != nil {
			t.Fatalf("step %d (%s): %v", step, desc, err)
		}
		if err := sameOps("sink", sunk, or.sunk); err != nil {
			t.Fatalf("step %d (%s): %v", step, desc, err)
		}
	}
}

// sameOps reports the first op where got and want differ. Errors must be
// the very error recorded, not merely one that prints the same.
func sameOps(what string, got, want []Op) error {
	if len(got) != len(want) {
		return fmt.Errorf("%s has %d ops, want %d", what, len(got), len(want))
	}
	for i := range got {
		g, w := got[i], want[i]
		if g.Err != w.Err || (w.Err != nil && !errors.Is(g.Err, w.Err)) {
			return fmt.Errorf("%s op %d err = %v, want %v", what, i, g.Err, w.Err)
		}
		g.Err, w.Err = nil, nil
		if g != w {
			return fmt.Errorf("%s op %d = %+v, want %+v", what, i, g, w)
		}
	}
	return nil
}

// TestRecorderMatchesOracle checks the compact recorder against the
// plain []Op oracle over random mixes of every recording call: pending
// ops, failures and their errors, SetEpoch and UpdateValue after a
// response (ignored), process indexes at and past the uint32 edge, and
// forged values, whose tag matches an honest value's but whose payload
// does not.
func TestRecorderMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := range 500 {
		prog := make(program, 64+rng.Intn(256))
		rng.Read(prog)
		t.Run(fmt.Sprint(trial), func(t *testing.T) { runOracle(t, prog) })
		if t.Failed() {
			return
		}
	}
}

// FuzzRecorderMatchesOracle is TestRecorderMatchesOracle over
// fuzzer-chosen programs. Run with
// go test -fuzz=FuzzRecorderMatchesOracle ./internal/history/.
func FuzzRecorderMatchesOracle(f *testing.F) {
	for _, seed := range [][]byte{
		// An honest write of (1,w1):"x" and two reads of it, the second
		// forged: (1,w1):"y".
		{0, 1, 1, 1, 1, 1, 1, 1, 1, 0, 0, 1, 1, 0, 0, 0, 0, 0, 0, 0, 2, 1, 0, 0, 0, 0, 0,
			2, 0, 1, 1, 1, 1, 3, 2, 1, 1, 1, 1, 1, 3, 2, 2, 1, 1, 1, 2, 3},
		// A client index past MaxUint32 and a writer index of -1, failed,
		// then answered with a writer index of MaxInt.
		{0, 0, 6, 9, 0, 1, 1, 8, 1, 2, 0, 1, 1, 8, 1, 0, 2, 0, 2, 1, 7, 2, 3},
		// A write whose tag is filled in, failed with its argument
		// refreshed, then a late update and a late epoch, both ignored.
		{0, 1, 1, 5, 1, 0, 1, 0, 1, 6, 0, 2, 1, 1, 1, 4, 0, 1, 2, 1, 1, 1, 0,
			7, 0, 3, 1, 1, 2, 5, 0, 9},
		// A pending op tagged with an epoch, a second invoked at an
		// explicit time and answered at one, a re-tag; the first stays
		// pending.
		{0, 0, 1, 2, 0, 0, 0, 0, 0, 5, 0, 7, 1, 0, 2, 3, 0, 0, 0, 0, 0, 2,
			3, 1, 1, 1, 1, 1, 1, 3, 5, 0, 9},
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, prog []byte) { runOracle(t, prog) })
}
