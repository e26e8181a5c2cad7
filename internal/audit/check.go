package audit

import (
	"fmt"
	"strings"

	"fastreg/internal/atomicity"
)

// KeyVerdict is the replay checker's decision for one key.
type KeyVerdict struct {
	Key    string
	Result atomicity.Result

	// Completed counts the operations the verdict is over; Optional the
	// failed/synthesized writes the checker may linearize or drop,
	// split as Pending (in flight when a log ended, or known only from
	// replica evidence) + Failed (the client saw the operation fail).
	Completed int
	Optional  int
	Pending   int
	Failed    int

	// Domains counts the distinct clock domains (originating processes)
	// the key's operations span.
	Domains int

	// Binding reports whether a violation on this key indicts the store
	// outright. Clean keys are always binding (a witness linearization is
	// a proof given the logs); a violated key is binding when coverage
	// guarantees no write is invisible — see Merge.FullCoverage — and,
	// live, its window dropped no record. Notes explains a non-binding
	// verdict.
	Binding bool
	Notes   []string
}

// Report is the replay checker's decision over a whole merge.
type Report struct {
	Verdicts []KeyVerdict

	// Stale carries the served-value cross-check findings (replica
	// replies older than the replica's own committed state), always
	// binding — the replica's own log convicts it. Conduct groups them by
	// replica.
	Stale   []StaleServe
	Conduct Conduct

	// Atomic is the client-visible half of the verdict: every key checked
	// atomic, on client records and the evidence of replicas not declared
	// untrusted. It reports what the logs show; it is no proof that a
	// store with a declared liar stays atomic.
	Atomic bool

	// Clean is true when the run passes: Atomic, and Conduct convicts
	// only declared-untrusted replicas, at most t of them.
	Clean bool

	// Binding is true when every violated key's verdict is binding.
	Binding bool

	// Operations is the total completed operation count checked.
	Operations int
}

// Violated returns the verdicts of non-atomic keys.
func (r *Report) Violated() []KeyVerdict {
	var out []KeyVerdict
	for _, v := range r.Verdicts {
		if !v.Result.Atomic {
			out = append(out, v)
		}
	}
	return out
}

// Check replays every merged key's history through the atomicity checker
// under the clock-domain model and reports per-key verdicts: the
// follower's checker over one window with no frontier.
func (m *Merge) Check() *Report {
	rep := &Report{Atomic: true, Binding: true, Stale: m.Stale, Conduct: m.in.Conduct()}
	_, caveat := m.in.coverage()
	rep.Verdicts = m.in.wc.check([]*bucket{m.in.buckets[0]}, true, caveat)
	for _, v := range rep.Verdicts {
		rep.Operations += v.Completed
		if !v.Result.Atomic {
			rep.Atomic = false
			rep.Binding = rep.Binding && v.Binding
		}
	}
	rep.Clean = rep.Atomic && m.in.conductClean(m.Stale)
	return rep
}

// Summary renders the report compactly, one key per line plus a final
// verdict line — the shape regaudit prints.
func (r *Report) Summary() string {
	var b strings.Builder
	for _, v := range r.Verdicts {
		status := "ATOMIC"
		if !v.Result.Atomic {
			status = "VIOLATED — " + v.Result.String()
		}
		fmt.Fprintf(&b, "key %q: %s (%d ops", v.Key, status, v.Completed)
		if v.Optional > 0 {
			fmt.Fprintf(&b, ", %d optional", v.Optional)
		}
		b.WriteString(")\n")
		for _, n := range v.Notes {
			fmt.Fprintf(&b, "  note: %s\n", n)
		}
	}
	if !r.Clean { // a passing run's findings are all by declared liars: counted below
		for _, s := range r.Stale {
			fmt.Fprintf(&b, "replica-stale: %s\n", s)
		}
	}
	b.WriteString(r.Conduct.String())
	switch {
	case r.Clean:
		fmt.Fprintf(&b, "verdict: CLEAN — %d keys atomic over %d operations\n", len(r.Verdicts), r.Operations)
	case r.Atomic:
		// Every key linearizes, but a replica served stale state: the
		// cross-check convicts the replica even when clients never
		// observed the lie end to end.
		fmt.Fprintf(&b, "verdict: VIOLATED — %d stale replica serve(s) (binding)\n", len(r.Stale))
	default:
		n := len(r.Violated())
		binding := "binding"
		if !r.Binding {
			binding = "not binding (incomplete coverage)"
		}
		fmt.Fprintf(&b, "verdict: VIOLATED — %d of %d keys non-atomic (%s)\n", n, len(r.Verdicts), binding)
	}
	return b.String()
}
