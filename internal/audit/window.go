package audit

import (
	"fmt"
	"maps"
	"slices"

	"fastreg/internal/atomicity"
	"fastreg/internal/history"
	"fastreg/internal/types"
	"fastreg/internal/vclock"
)

// This file is the checker both audit drivers share: it decides a window
// of per-key operations against a frontier, one key at a time. The
// follower (stream.go) hands it each epoch's three-epoch window and folds
// the oldest epoch into the frontier afterwards, so it carries O(window)
// state between verdicts instead of the full history. The offline drain
// (MergeFiles) hands it one unbounded window with an empty frontier, where
// the only base is InitialValue and CheckOpt is exactly CheckDomains.
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
// driven from one goroutine (the follower's); it holds no locks. An empty
// frontier means the register starts at InitialValue for every key.
type WindowChecker struct {
	frontiers map[string]*keyFrontier

	// label names the process behind a clock domain in a violation's
	// notes.
	label func(dom int, op history.Op) string
}

// check decides one window — an epoch's bucket plus its still-concurrent
// neighbours, or the offline drain's one bucket — and is the one per-key
// verdict builder. Every key the window touches is decided, in key
// order: it is atomic when its ops linearize under at least one frontier
// base. all keeps the atomic keys' verdicts too (the offline report);
// otherwise only failures are built. A non-empty caveat makes every
// failure non-binding and says why. The frontier is not mutated — the
// follower calls retire with the oldest bucket afterwards.
func (wc *WindowChecker) check(window []*bucket, all bool, caveat string) []KeyVerdict {
	var out []KeyVerdict
	for _, k := range windowKeys(window) {
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
			for i, o := range b.keys[k] {
				ops = append(ops, o)
				dom[o.ID()] = b.doms[k][i]
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
		for _, base := range bases {
			if res = atomicity.CheckOpt(h, atomicity.Options{DomainOf: domainOf, Base: base}); res.Atomic {
				break
			}
		}
		if res.Atomic && !all {
			continue
		}
		domains := make(map[int]bool)
		for _, d := range dom {
			domains[d] = true
		}
		v := KeyVerdict{
			Key:       k,
			Result:    res,
			Completed: len(h.Completed()),
			Pending:   len(h.Pending()),
			Failed:    len(h.Failed()),
			Domains:   len(domains),
			Binding:   true,
		}
		v.Optional = v.Pending + v.Failed
		if !res.Atomic {
			wc.explain(&v, dom, bases, caveat)
		}
		out = append(out, v)
	}
	return out
}

// windowKeys returns the keys a window touches, sorted.
func windowKeys(window []*bucket) []string {
	keys := make(map[string]bool)
	for _, b := range window {
		for k := range b.keys {
			keys[k] = true
		}
	}
	return slices.Sorted(maps.Keys(keys))
}

// explain notes why a key failed: the frontier bases tried, the clock
// domain of each implicated operation — with per-process logs, "which
// process saw this" is the first thing an operator needs — and the
// caveat that makes the verdict non-binding, if any.
func (wc *WindowChecker) explain(v *KeyVerdict, dom map[history.ID]int, bases []types.Value, caveat string) {
	if len(bases) > 1 || !bases[0].IsInitial() {
		v.Notes = append(v.Notes, fmt.Sprintf("no linearization under any of %d frontier base value(s)", len(bases)))
	}
	// A no-linearization verdict implicates every op, so cap the listing.
	ops := v.Result.Violation.Ops
	if len(ops) > 8 {
		v.Notes = append(v.Notes, fmt.Sprintf("%d operations implicated; first 8:", len(ops)))
		ops = ops[:8]
	}
	for _, op := range ops {
		v.Notes = append(v.Notes, fmt.Sprintf("%s observed by %s", op.Key(), wc.label(dom[op.ID()], op)))
	}
	if caveat != "" {
		v.Binding = false
		v.Notes = append(v.Notes, "NOT BINDING: "+caveat)
	}
}

// retire folds a bucket — the oldest epoch of a just-checked window —
// into the frontier. Completed writes (and values completed reads
// witnessed) join the candidate set; completed ops invalidate
// candidates they real-time-follow with a different value; optional
// writes move to the carried set.
func (wc *WindowChecker) retire(b *bucket) {
	for key, ops := range b.keys {
		doms := b.doms[key]
		fr := wc.frontiers[key]
		if fr == nil {
			fr = &keyFrontier{}
			wc.frontiers[key] = fr
		}
		// 1. New candidates: completed writes, and completed reads
		// anchoring a value (a carried optional write's, or refreshing
		// an existing candidate's anchor).
		for i, o := range ops {
			if !o.Done() || o.Err != nil {
				continue
			}
			dom := doms[i]
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
			if i := slices.IndexFunc(fr.carried, func(c carriedOp) bool { return c.op.Value == o.Value }); i >= 0 {
				fr.carried = slices.Delete(fr.carried, i, i+1)
			}
			fr.addCand(o.Value, o.Response, dom)
		}
		// 2. Invalidation: a completed op kills every candidate whose
		// anchor real-time-precedes it and whose value differs — the
		// register provably moved past that value.
		for i, o := range ops {
			if !o.Done() || o.Err != nil {
				continue
			}
			dom := doms[i]
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
		for i, o := range ops {
			if o.Kind != types.OpWrite || (o.Done() && o.Err == nil) {
				continue
			}
			if o.Value.Tag == types.ZeroTag() {
				continue // no tag was ever assigned: unmatchable, droppable
			}
			if !slices.ContainsFunc(fr.carried, func(c carriedOp) bool { return c.op.ID() == o.ID() }) {
				fr.carried = append(fr.carried, carriedOp{op: o, dom: doms[i]})
			}
		}
	}
}
