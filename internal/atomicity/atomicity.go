// Package atomicity decides whether an execution satisfies Definition 2.1
// of the paper: there is a sequential permutation π of all operations that
// respects real-time order (O1 ≺σ O2 ⇒ O1 before O2 in π) and in which
// every read returns the value of the latest preceding write.
//
// This is linearizability of a single register (Herlihy & Wing). The main
// decision procedure is the Wing–Gong–Lowe search with memoization: states
// are (set of linearized operations, last linearized write); an operation
// may be appended when no unlinearized operation real-time-precedes it, and
// a read may be appended only if it returns the current register value.
// With the bounded client concurrency of this repository's executions the
// reachable state space is small, so the search is effectively linear.
//
// Fast necessary-condition checks (reads from nowhere, reads from the
// future, new-old inversions) run first to produce precise violation
// messages; a brute-force permutation checker cross-validates the search on
// tiny histories in the tests.
package atomicity

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"

	"fastreg/internal/history"
	"fastreg/internal/types"
	"fastreg/internal/vclock"
)

// Violation describes why a history is not atomic.
type Violation struct {
	// Code classifies the violation.
	Code Code
	// Detail is a human-readable explanation naming the operations.
	Detail string
	// Ops are the operations implicated (best effort).
	Ops []history.Op
}

// Code classifies violations.
type Code int

// Violation codes, from cheap structural checks to the full search.
const (
	// ReadFromNowhere: a read returned a value no write wrote.
	ReadFromNowhere Code = iota + 1
	// ReadFromFuture: a read returned a value whose write it precedes.
	ReadFromFuture
	// NewOldInversion: two sequential reads observed two writes in the
	// wrong order.
	NewOldInversion
	// NoLinearization: the exhaustive search found no valid permutation.
	NoLinearization
)

// String names the code.
func (c Code) String() string {
	switch c {
	case ReadFromNowhere:
		return "read-from-nowhere"
	case ReadFromFuture:
		return "read-from-future"
	case NewOldInversion:
		return "new-old-inversion"
	case NoLinearization:
		return "no-linearization"
	default:
		return "unknown"
	}
}

// Result is the checker's verdict.
type Result struct {
	Atomic bool
	// Linearization is a witness permutation when Atomic (operation keys in
	// π order).
	Linearization []history.Op
	// Violation explains the failure when !Atomic.
	Violation *Violation
}

// String renders the verdict compactly.
func (r Result) String() string {
	if r.Atomic {
		keys := make([]string, len(r.Linearization))
		for i, o := range r.Linearization {
			keys[i] = o.Key()
		}
		return "ATOMIC π=[" + strings.Join(keys, " ") + "]"
	}
	return fmt.Sprintf("VIOLATION %s: %s", r.Violation.Code, r.Violation.Detail)
}

const pendingResponse = vclock.Time(math.MaxInt64)

type node struct {
	op       history.Op
	invoke   vclock.Time
	response vclock.Time
	optional bool // pending/failed write: may or may not have taken effect
	dom      int  // clock domain; timestamps compare only within a domain
}

// Options tunes the checker. The zero value is the default configuration.
type Options struct {
	// DisableMemo turns off state memoization in the WGL search (ablation
	// only; exponential blow-up on concurrent histories).
	DisableMemo bool

	// DomainOf maps each operation to its clock domain. Within a domain
	// the invoke/response timestamps are real-time comparable; across
	// domains they are not, and the checker treats every cross-domain
	// pair of operations as concurrent. This is the model for histories
	// merged from several processes' capture logs (internal/audit): each
	// process stamps its own operations with its own clock, and no
	// cross-process real-time order is observable without a shared clock
	// — so none may be imposed, on pain of false violations. nil means
	// one shared domain: the classic single-process checker.
	DomainOf func(history.Op) int

	// Base, when set, is the register's value BEFORE the history begins —
	// the windowed checker's frontier (internal/audit): the final value of
	// the retired prefix of a streaming execution. Reads may return it
	// until the first linearized write overwrites it, exactly as they may
	// return InitialValue in a full history. The zero value means the
	// register starts at InitialValue (the full-history checker).
	Base types.Value
}

// Check decides atomicity of the history. Completed reads and writes are
// required; writes that never completed (pending or failed) are optional —
// the checker may linearize them or drop them, the standard completion
// semantics for crashed operations. Pending reads are ignored.
func Check(h history.History) Result { return CheckOpt(h, Options{}) }

// CheckDomains is Check for multi-process histories: domainOf assigns
// each operation its clock domain (see Options.DomainOf). A verdict is as
// binding as Check's, under strictly weaker assumptions — the checker
// only trusts timestamp comparisons within a domain.
func CheckDomains(h history.History, domainOf func(history.Op) int) Result {
	return CheckOpt(h, Options{DomainOf: domainOf})
}

// CheckOpt is Check with explicit Options.
func CheckOpt(h history.History, opts Options) Result {
	domainOf := opts.DomainOf
	if domainOf == nil {
		domainOf = func(history.Op) int { return 0 }
	}
	// Normalize domains to dense 0..D-1 indices so the search can keep
	// per-domain state in a slice.
	dense := make(map[int]int)
	dom := func(o history.Op) int {
		d := domainOf(o)
		idx, ok := dense[d]
		if !ok {
			idx = len(dense)
			dense[d] = idx
		}
		return idx
	}
	var nodes []node
	for _, o := range h.Completed() {
		nodes = append(nodes, node{op: o, invoke: o.Invoke, response: o.Response, dom: dom(o)})
	}
	for _, o := range append(h.Pending(), h.Failed()...) {
		if o.Kind == types.OpWrite {
			nodes = append(nodes, node{op: o, invoke: o.Invoke, response: pendingResponse, optional: true, dom: dom(o)})
		}
	}
	slices.SortFunc(nodes, func(a, b node) int { return cmp.Compare(a.invoke, b.invoke) })

	base := opts.Base
	if base == (types.Value{}) {
		base = types.InitialValue()
	}
	if v := structuralChecks(nodes, base); v != nil {
		return Result{Violation: v}
	}
	lin, ok := search(nodes, len(dense), base, !opts.DisableMemo)
	if !ok {
		return Result{Violation: &Violation{
			Code:   NoLinearization,
			Detail: "no permutation satisfies real-time and read-from requirements",
			Ops:    opsOf(nodes),
		}}
	}
	return Result{Atomic: true, Linearization: lin}
}

func opsOf(nodes []node) []history.Op {
	out := make([]history.Op, len(nodes))
	for i, n := range nodes {
		out[i] = n.op
	}
	return out
}

// structuralChecks runs the linear-time necessary conditions so violations
// get precise messages. Returning nil means "no cheap violation found" —
// the search still decides. Every real-time comparison is gated on the
// two operations sharing a clock domain; with one domain (the default)
// the gate is always open.
func structuralChecks(nodes []node, base types.Value) *Violation {
	writes := make(map[types.Value]node)
	for _, n := range nodes {
		if n.op.Kind == types.OpWrite {
			if _, dup := writes[n.op.Value]; dup {
				// Duplicate write values make the read-from relation
				// ambiguous; the cheap checks would be unsound. Let the
				// exhaustive search decide alone.
				return nil
			}
			writes[n.op.Value] = n
		}
	}
	for _, n := range nodes {
		if n.op.Kind != types.OpRead || n.optional {
			continue
		}
		v := n.op.Value
		if v.IsInitial() || v == base {
			continue
		}
		w, ok := writes[v]
		if !ok {
			return &Violation{
				Code:   ReadFromNowhere,
				Detail: fmt.Sprintf("%s returned %s which no write wrote", n.op.Key(), v),
				Ops:    []history.Op{n.op},
			}
		}
		if n.dom == w.dom && n.response < w.invoke {
			return &Violation{
				Code:   ReadFromFuture,
				Detail: fmt.Sprintf("%s returned %s but precedes its write %s", n.op.Key(), v, w.op.Key()),
				Ops:    []history.Op{n.op, w.op},
			}
		}
	}
	// New-old inversion: r1 ≺ r2, r1 returns v1, r2 returns v2 ≠ v1, and
	// write(v1) really precedes... the precise condition: write(v2) ≺
	// write(v1) forces v2 to be overwritten before r1 read v1, so r2 (after
	// r1) can no longer read v2.
	var reads []node
	for _, n := range nodes {
		if n.op.Kind == types.OpRead && !n.optional {
			reads = append(reads, n)
		}
	}
	precedes := func(a, b node) bool { return a.dom == b.dom && a.response < b.invoke }
	for i, r1 := range reads {
		for j, r2 := range reads {
			if i == j || !precedes(r1, r2) {
				continue
			}
			v1, v2 := r1.op.Value, r2.op.Value
			if v1 == v2 {
				continue
			}
			w1, ok1 := writes[v1]
			w2, ok2 := writes[v2]
			// Treat the initial value as written before everything.
			switch {
			case ok1 && ok2 && precedes(w2, w1):
				return &Violation{
					Code: NewOldInversion,
					Detail: fmt.Sprintf("%s read %s then %s read %s, but %s ≺ %s",
						r1.op.Key(), v1, r2.op.Key(), v2, w2.op.Key(), w1.op.Key()),
					Ops: []history.Op{r1.op, r2.op, w1.op, w2.op},
				}
			case !ok1 && v1.IsInitial() && ok2:
				// fine: v2 written later
			case ok1 && v2.IsInitial():
				// r2 read the initial value after r1 read a written one:
				// inversion iff write(v1) completed before r2 started? Not
				// necessarily — w1 could be concurrent with both reads. Only
				// flag the forced case: w1 ≺ r1 (so the overwrite of initial
				// is fixed before r1).
				if precedes(w1, r1) {
					return &Violation{
						Code: NewOldInversion,
						Detail: fmt.Sprintf("%s read %s (write completed) but later %s read the initial value",
							r1.op.Key(), v1, r2.op.Key()),
						Ops: []history.Op{r1.op, r2.op, w1.op},
					}
				}
			}
		}
	}
	return nil
}

// search is the memoized WGL decision procedure. It returns a witness
// linearization when one exists. ndoms is the number of clock domains;
// an operation is eligible when no unlinearized operation of ITS OWN
// domain strictly precedes it (cross-domain pairs are concurrent by
// construction, so they never block each other). base is the register's
// content before any write linearizes.
func search(nodes []node, ndoms int, base types.Value, memoize bool) ([]history.Op, bool) {
	n := len(nodes)
	if n == 0 {
		return nil, true
	}
	words := (n + 63) / 64
	type maskT = string // packed bitmask bytes + last-write index

	requiredCount := 0
	for _, nd := range nodes {
		if !nd.optional {
			requiredCount++
		}
	}

	mask := make([]uint64, words)
	memo := make(map[maskT]bool) // states proven fruitless
	var lin []history.Op

	keyOf := func(lastWrite int) maskT {
		b := make([]byte, words*8+4)
		for i, w := range mask {
			for j := 0; j < 8; j++ {
				b[i*8+j] = byte(w >> (8 * j))
			}
		}
		b[words*8] = byte(lastWrite)
		b[words*8+1] = byte(lastWrite >> 8)
		b[words*8+2] = byte(lastWrite >> 16)
		b[words*8+3] = byte(lastWrite >> 24)
		return string(b)
	}
	inMask := func(i int) bool { return mask[i/64]&(1<<(i%64)) != 0 }
	setMask := func(i int) { mask[i/64] |= 1 << (i % 64) }
	clearMask := func(i int) { mask[i/64] &^= 1 << (i % 64) }

	curValue := func(lastWrite int) types.Value {
		if lastWrite < 0 {
			return base
		}
		return nodes[lastWrite].op.Value
	}

	var linearized int // count of required ops linearized

	// minResponse is per clock domain and per recursion depth: the
	// recursion mutates the mask, so a call's scratch would go stale
	// across its subcalls — but depth (= ops linearized so far) names a
	// disjoint slice of one preallocated buffer, keeping the hot search
	// loop allocation-free.
	minRespBuf := make([]vclock.Time, (n+1)*ndoms)

	var dfs func(lastWrite int) bool
	dfs = func(lastWrite int) bool {
		if linearized == requiredCount {
			return true
		}
		var key maskT
		if memoize {
			key = keyOf(lastWrite)
			if memo[key] {
				return false
			}
		}
		// An op is eligible if unlinearized and no unlinearized op of its
		// own domain strictly precedes it.
		minResponse := minRespBuf[len(lin)*ndoms : (len(lin)+1)*ndoms]
		for d := range minResponse {
			minResponse[d] = pendingResponse
		}
		for i := 0; i < n; i++ {
			if !inMask(i) && nodes[i].response < minResponse[nodes[i].dom] {
				minResponse[nodes[i].dom] = nodes[i].response
			}
		}
		for i := 0; i < n; i++ {
			if inMask(i) {
				continue
			}
			if nodes[i].invoke > minResponse[nodes[i].dom] {
				continue // some unlinearized op in i's domain precedes i
			}
			nd := nodes[i]
			if nd.op.Kind == types.OpRead {
				if nd.op.Value != curValue(lastWrite) {
					continue
				}
				setMask(i)
				if !nd.optional {
					linearized++
				}
				lin = append(lin, nd.op)
				if dfs(lastWrite) {
					return true
				}
				lin = lin[:len(lin)-1]
				if !nd.optional {
					linearized--
				}
				clearMask(i)
			} else {
				setMask(i)
				if !nd.optional {
					linearized++
				}
				lin = append(lin, nd.op)
				if dfs(i) {
					return true
				}
				lin = lin[:len(lin)-1]
				if !nd.optional {
					linearized--
				}
				clearMask(i)
			}
		}
		// Optional (pending) ops may also be dropped entirely: that case is
		// covered implicitly because they never become required and never
		// block minimality (their response is +∞). Nothing worked here.
		if memoize {
			memo[key] = true
		}
		return false
	}
	ok := dfs(-1)
	if !ok {
		return nil, false
	}
	out := make([]history.Op, len(lin))
	copy(out, lin)
	return out, true
}

// CheckPermutations is a brute-force reference: it tries every permutation
// of the completed operations (pending ops dropped). Exponential — only for
// cross-validating Check on tiny histories in tests.
func CheckPermutations(h history.History) bool {
	ops := h.Completed()
	n := len(ops)
	if n > 9 {
		panic("atomicity: CheckPermutations limited to 9 operations")
	}
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	valid := func(perm []int) bool {
		// Real-time requirement.
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				if ops[perm[j]].Precedes(ops[perm[i]]) {
					return false
				}
			}
		}
		// Read-from requirement.
		cur := types.InitialValue()
		for _, k := range perm {
			o := ops[k]
			if o.Kind == types.OpWrite {
				cur = o.Value
			} else if o.Value != cur {
				return false
			}
		}
		return true
	}
	var permute func(k int) bool
	permute = func(k int) bool {
		if k == n {
			return valid(idx)
		}
		for i := k; i < n; i++ {
			idx[k], idx[i] = idx[i], idx[k]
			if permute(k + 1) {
				idx[k], idx[i] = idx[i], idx[k]
				return true
			}
			idx[k], idx[i] = idx[i], idx[k]
		}
		return false
	}
	return permute(0)
}
