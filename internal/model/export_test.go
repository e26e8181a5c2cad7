package model

import "iter"

// Step is one step of an execution as a test observes it.
type Step struct {
	Kind              string // "invoke", "request", "reply", "complete" or "crash"
	Op, Round, Server int
	Took              bool // handled, counted or responded
	// Counted and Need are, for a complete step, the replies its round
	// counted and the round's Need.
	Counted, Need int
}

var stepNames = [...]string{"invoke", "request", "reply", "complete", "crash"}

// ObserveSteps gives every execution started until restore is called an
// observer from newObserver, which then sees each of its steps.
func ObserveSteps(newObserver func() func(Step)) (restore func()) {
	old := observeSteps
	observeSteps = func() func(stepKind, msg, bool, int, int) {
		see := newObserver()
		return func(k stepKind, m msg, took bool, counted, need int) {
			see(Step{stepNames[k], m.op, m.round, m.srv, took, counted, need})
		}
	}
	return func() { observeSteps = old }
}

// Scripts yields the skeleton's scripts through deviation maxDev, with the
// server-symmetry reduction when reduce is set.
func (sk Skeleton) Scripts(maxDev int, reduce bool) iter.Seq2[int, Script] {
	return sk.scripts(maxDev, reduce)
}
