package model

// Step is one step of an execution as a test observes it.
type Step struct {
	Kind              string // "invoke", "request", "reply", "complete" or "crash"
	Op, Round, Server int
	Took              bool // handled, counted or responded
}

var stepNames = [...]string{"invoke", "request", "reply", "complete", "crash"}

// ObserveSteps gives every execution started until restore is called an
// observer from newObserver, which then sees each of its steps.
func ObserveSteps(newObserver func() func(Step)) (restore func()) {
	old := observeSteps
	observeSteps = func() func(stepKind, msg, bool) {
		see := newObserver()
		return func(k stepKind, m msg, took bool) { see(Step{stepNames[k], m.op, m.round, m.srv, took}) }
	}
	return func() { observeSteps = old }
}
