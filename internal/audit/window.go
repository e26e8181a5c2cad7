package audit

import (
	"fmt"
	"sort"

	"fastreg/internal/atomicity"
	"fastreg/internal/history"
	"fastreg/internal/types"
	"fastreg/internal/vclock"
)

// This file is the windowed half of the continuous audit: an atomicity
// checker that consumes an execution one closed epoch at a time and
// carries O(window) state between verdicts instead of the full history.
//
// # Why a three-epoch window is enough — and necessary
//
// The weight-throwing coordinator (internal/epoch) keeps at most two
// phases live and refuses a new cutover until the draining epoch's
// weight is whole. Operations of epoch N can therefore overlap, in real
// time, only operations of epochs N−1, N and N+1: every op of epoch
// ≤ N−2 responded before epoch N even opened. The checker exploits the
// fence in both directions:
//
//   - the verdict for epoch N is computed over the ops of {N−1, N, N+1}
//     once N+1 is complete — any op concurrent with an epoch-N op is in
//     that window, so no real-time edge the offline checker would see is
//     missing. Checking N against N−1 alone would be UNSOUND the other
//     way: an epoch-N+1 read concurrent with an epoch-N write may
//     legally return the older value, and a narrower window would flag
//     it;
//   - after the verdict for N, epoch N−1's completed ops RETIRE into the
//     frontier — a compressed summary that future windows check against
//     without ever revisiting the ops themselves.
//
// # The frontier
//
// The retired prefix constrains the future through exactly one
// question: what may the register still contain? The frontier keeps the
// CANDIDATE set — values of retired completed writes (and values
// retired reads witnessed) that some linearization of the prefix can
// leave as the register's final content. A candidate dies when a
// retired completed op that real-time-follows its anchor observed or
// wrote a different value. A window checks atomic if it linearizes
// under AT LEAST ONE candidate base (atomicity.Options.Base); in the
// steady state the set has one element, so the common cost is one
// check. Optional writes (failed, or synthesized from replica
// evidence) never respond, so they never retire: they are CARRIED as
// linearize-anytime ops until a retired read anchors their value into
// the candidate set. The carried set grows only with failures — the
// window-size gauge watches it.

// EpochOps is one epoch's operations grouped per key, plus the clock
// domain of each op — the unit the streaming follower hands the windowed
// checker. Pending write entries are replica-evidence synthesis, exactly
// like the offline merge's.
type EpochOps struct {
	Epoch uint64
	Keys  map[string][]history.Op

	// dom maps (register key, client, opID) to the op's clock domain.
	// The register key is part of it because opIDs are per register: a
	// write synthesized on one key must not relabel the same-named client
	// op on another.
	dom map[opRef]int
}

// NewEpochOps returns an empty bucket for epoch n.
func NewEpochOps(n uint64) *EpochOps {
	return &EpochOps{Epoch: n, Keys: make(map[string][]history.Op), dom: make(map[opRef]int)}
}

// Add records one op under its key with its clock domain.
func (b *EpochOps) Add(key string, op history.Op, dom int) {
	b.Keys[key] = append(b.Keys[key], op)
	b.dom[opRef{key: key, id: op.ID()}] = dom
}

// domainOf returns the clock domain of op, recorded under key.
func (b *EpochOps) domainOf(key string, op history.Op) int {
	return b.dom[opRef{key: key, id: op.ID()}]
}

// frontCand is one possible final register value of the retired prefix.
// resp/dom anchor the last retired op that witnessed the value, so a
// later differing retired op can invalidate it.
type frontCand struct {
	val  types.Value
	resp vclock.Time
	dom  int
}

// carriedOp is an optional write that outlived its epoch.
type carriedOp struct {
	op  history.Op
	dom int
}

// keyFrontier is one key's compressed retired prefix.
type keyFrontier struct {
	cands   []frontCand
	carried []carriedOp
}

func (fr *keyFrontier) addCand(v types.Value, resp vclock.Time, dom int) {
	for i := range fr.cands {
		if fr.cands[i].val == v {
			if fr.cands[i].resp < resp {
				fr.cands[i].resp = resp
				fr.cands[i].dom = dom
			}
			return
		}
	}
	fr.cands = append(fr.cands, frontCand{val: v, resp: resp, dom: dom})
}

// WindowChecker carries the frontier between per-epoch windows. It is
// driven from one goroutine (the follower's); it holds no locks.
type WindowChecker struct {
	frontiers map[string]*keyFrontier
}

// NewWindowChecker returns a checker with an empty frontier: the
// register starts at InitialValue for every key.
func NewWindowChecker() *WindowChecker {
	return &WindowChecker{frontiers: make(map[string]*keyFrontier)}
}

// CarriedOps counts optional writes currently carried across windows —
// the component of the checker's state that can grow (with failures).
func (wc *WindowChecker) CarriedOps() int {
	n := 0
	for _, fr := range wc.frontiers {
		n += len(fr.carried)
	}
	return n
}

// Check decides the verdict for one epoch over its window (the epoch's
// bucket plus its still-concurrent neighbours; nil entries are fine)
// and returns the per-key verdicts of keys that fail. It does not
// mutate the frontier — call Retire with the oldest bucket afterwards.
func (wc *WindowChecker) Check(window []*EpochOps) []KeyVerdict {
	keySet := make(map[string]bool)
	for _, b := range window {
		if b == nil {
			continue
		}
		for k := range b.Keys {
			keySet[k] = true
		}
	}
	keys := make([]string, 0, len(keySet))
	for k := range keySet {
		keys = append(keys, k)
	}
	sort.Strings(keys)

	var bad []KeyVerdict
	for _, k := range keys {
		fr := wc.frontiers[k]
		var ops []history.Op
		dom := make(map[history.ID]int) // key k's ops only
		if fr != nil {
			for _, c := range fr.carried {
				ops = append(ops, c.op)
				dom[c.op.ID()] = c.dom
			}
		}
		for _, b := range window {
			if b == nil {
				continue
			}
			for _, o := range b.Keys[k] {
				ops = append(ops, o)
				dom[o.ID()] = b.domainOf(k, o)
			}
		}
		h := history.History{Ops: ops}
		domainOf := func(o history.Op) int { return dom[o.ID()] }
		var bases []types.Value
		if fr != nil {
			for _, c := range fr.cands {
				bases = append(bases, c.val)
			}
		}
		if len(bases) == 0 {
			bases = []types.Value{types.InitialValue()}
		}
		var res atomicity.Result
		ok := false
		for _, base := range bases {
			res = atomicity.CheckOpt(h, atomicity.Options{DomainOf: domainOf, Base: base})
			if res.Atomic {
				ok = true
				break
			}
		}
		if ok {
			continue
		}
		v := KeyVerdict{
			Key:       k,
			Result:    res,
			Completed: len(h.Completed()),
			Pending:   len(h.Pending()),
			Failed:    len(h.Failed()),
			Binding:   true,
		}
		v.Optional = v.Pending + v.Failed
		if len(bases) > 1 || !bases[0].IsInitial() {
			v.Notes = append(v.Notes,
				fmt.Sprintf("no linearization under any of %d frontier base value(s)", len(bases)))
		}
		bad = append(bad, v)
	}
	return bad
}

// Retire folds a bucket — the oldest epoch of a just-checked window —
// into the frontier. Completed writes (and values completed reads
// witnessed) join the candidate set; completed ops invalidate
// candidates they real-time-follow with a different value; optional
// writes move to the carried set.
func (wc *WindowChecker) Retire(b *EpochOps) {
	if b == nil {
		return
	}
	for key, ops := range b.Keys {
		fr := wc.frontiers[key]
		if fr == nil {
			fr = &keyFrontier{}
			wc.frontiers[key] = fr
		}
		// 1. New candidates: completed writes, and completed reads
		// anchoring a value (a carried optional write's, or refreshing
		// an existing candidate's anchor).
		for _, o := range ops {
			if !o.Done() || o.Err != nil {
				continue
			}
			dom := b.domainOf(key, o)
			if o.Kind == types.OpWrite {
				fr.addCand(o.Value, o.Response, dom)
				continue
			}
			if o.Value.IsInitial() {
				continue
			}
			// A read's witness: its value is a possible final register
			// content as of the read. If a carried optional write
			// supplied it, the write is now consumed — every
			// linearization placed it before this read.
			for i, c := range fr.carried {
				if c.op.Value == o.Value {
					fr.carried = append(fr.carried[:i], fr.carried[i+1:]...)
					break
				}
			}
			fr.addCand(o.Value, o.Response, dom)
		}
		// 2. Invalidation: a completed op kills every candidate whose
		// anchor real-time-precedes it and whose value differs — the
		// register provably moved past that value.
		for _, o := range ops {
			if !o.Done() || o.Err != nil {
				continue
			}
			dom := b.domainOf(key, o)
			kept := fr.cands[:0]
			for _, c := range fr.cands {
				if c.dom == dom && c.resp < o.Invoke && c.val != o.Value {
					continue
				}
				kept = append(kept, c)
			}
			fr.cands = kept
		}
		// 3. Optional writes outlive the window: they may legally
		// linearize (be read) arbitrarily late.
		for _, o := range ops {
			if o.Kind != types.OpWrite || (o.Done() && o.Err == nil) {
				continue
			}
			if o.Value.Tag == types.ZeroTag() {
				continue // no tag was ever assigned: unmatchable, droppable
			}
			dup := false
			for _, c := range fr.carried {
				if c.op.ID() == o.ID() {
					dup = true
					break
				}
			}
			if !dup {
				fr.carried = append(fr.carried, carriedOp{op: o, dom: b.domainOf(key, o)})
			}
		}
	}
}
