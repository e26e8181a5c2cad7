// Package faultnet is the composable fault-injection layer for the live
// fleet: a palette of schedulable network faults — asymmetric partitions,
// per-direction delay/jitter, bandwidth caps, frame corruption and
// truncation, duplicate delivery, connection resets — expressed as rules
// over named endpoints and applied to the transport's TCP byte streams.
//
// The design has three layers:
//
//   - Rules: a Rule names a direction (From → To, "*" wildcards), a
//     Window on the plan's virtual clock, and a Fault. Directions are
//     independent — dropping c→s2 while s2→c flows is one rule, which is
//     what makes partitions asymmetric.
//   - Plan: the seeded schedule. Every probabilistic decision (corrupt
//     this frame? how much jitter?) draws from a per-direction RNG
//     sub-seeded from (seed, from, to, connection instance), so the same
//     seed replays the same schedule regardless of unrelated goroutine
//     interleaving, and two directions never perturb each other's draws.
//   - Wrappers: Plan.WrapConn shims a net.Conn on the TCP path — it
//     parses the transport's length-prefixed frame stream in each
//     direction and applies fault actions per frame, so a corrupted
//     frame reaches the peer's fuzz-hardened codec (which must reject
//     it, killing the connection, which the client then redials).
//     Plan.Listen wires the shim into a transport.Listener a server can
//     bind directly. This byte layer is the only one: the in-process
//     backend has no wrapper, and regstorm refuses faults there.
//
// faultnet sits strictly below the protocol layer: it never inspects
// envelopes beyond the frame boundary and cannot forge values (that is
// internal/byzantine's job). Its faults are exactly the ones a lossy,
// multihop network inflicts — the regime the wChain line of work shows
// quorum systems must survive.
package faultnet

import (
	"hash/fnv"
	"math/rand"
	"sync"
	"time"
)

// FaultKind enumerates the palette.
type FaultKind int

const (
	// Drop discards every matching frame — half of an asymmetric
	// partition (pair it with the reverse direction for a full one).
	Drop FaultKind = iota
	// Delay holds each frame for Fault.Delay plus uniform jitter in
	// [0, Fault.Jitter) before delivery; per-direction ordering is
	// preserved (a delayed frame delays everything behind it).
	Delay
	// Bandwidth caps the direction at Fault.BytesPerSec: each frame's
	// delivery time advances by len/rate, modeling a thin pipe.
	Bandwidth
	// Corrupt flips the body bytes of matching frames (with probability
	// Fault.Prob) while keeping the length header intact, so the peer
	// reads a well-framed but garbage body — the fuzz-hardened codec
	// must reject it and the connection dies.
	Corrupt
	// Truncate delivers only half of a matching frame's body and then
	// resets the connection, modeling a peer dying mid-write.
	Truncate
	// Duplicate delivers matching frames twice — the at-least-once
	// delivery the protocols' idempotent handlers must absorb.
	Duplicate
	// Reset closes the underlying connection when a matching frame
	// passes, forcing the client's redial/backoff path.
	Reset
)

// String names the kind the way scenario specs spell it.
func (k FaultKind) String() string {
	switch k {
	case Drop:
		return "drop"
	case Delay:
		return "delay"
	case Bandwidth:
		return "bandwidth"
	case Corrupt:
		return "corrupt"
	case Truncate:
		return "truncate"
	case Duplicate:
		return "duplicate"
	case Reset:
		return "reset"
	}
	return "unknown"
}

// ParseFaultKind is String's inverse — the one mapping scenario specs
// (cmd/regstorm) use, so spelling lives here with the palette.
func ParseFaultKind(s string) (FaultKind, bool) {
	for k := Drop; k <= Reset; k++ {
		if k.String() == s {
			return k, true
		}
	}
	return 0, false
}

// Fault is one palette entry; which parameters apply depends on Kind.
type Fault struct {
	Kind FaultKind

	// Delay faults: fixed base plus uniform jitter in [0, Jitter).
	Delay  time.Duration
	Jitter time.Duration

	// Bandwidth faults: the direction's byte rate.
	BytesPerSec int

	// Corrupt/Truncate/Duplicate/Reset: per-frame probability; 0 means
	// every matching frame (the common case for scheduled windows).
	Prob float64
}

// Window is an interval on the plan's virtual clock (durations since
// Plan.Start). End 0 means open-ended.
type Window struct {
	Start time.Duration
	End   time.Duration
}

// Contains reports whether the virtual instant falls inside the window.
func (w Window) Contains(now time.Duration) bool {
	return now >= w.Start && (w.End == 0 || now < w.End)
}

// Rule applies one fault to one direction during one window. From and To
// are endpoint names ("c", "s2", …; "*" matches any), chosen by whoever
// builds the wrappers — the rule layer never sees addresses.
type Rule struct {
	From, To string
	Window   Window
	Fault    Fault
}

func (r Rule) matches(from, to string) bool {
	return (r.From == "*" || r.From == from) && (r.To == "*" || r.To == to)
}

// Plan is a seeded fault schedule: the rules plus the virtual clock they
// are evaluated against and the derived per-direction randomness. A Plan
// is immutable after construction except for starting its clock; one
// Plan serves every connection of a scenario.
type Plan struct {
	seed  int64
	rules []Rule

	mu      sync.Mutex
	started bool             // guardedby: mu
	start   time.Time        // guardedby: mu
	seq     map[string]int64 // guardedby: mu — per-direction connection instance counter
}

// NewPlan builds a plan from a seed and its rules. The virtual clock
// reads zero until Start is called, so open-ended windows beginning at 0
// are active immediately and later windows arm when the scenario starts.
func NewPlan(seed int64, rules ...Rule) *Plan {
	return &Plan{seed: seed, rules: rules, seq: make(map[string]int64)}
}

// Start begins the virtual clock (idempotent). Call it when the workload
// starts so windows measure scenario time, not setup time.
func (p *Plan) Start() {
	p.mu.Lock()
	if !p.started {
		p.started = true
		p.start = time.Now()
	}
	p.mu.Unlock()
}

// Now is the virtual clock: time since Start (zero before it).
func (p *Plan) Now() time.Duration {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.started {
		return 0
	}
	return time.Since(p.start)
}

// Rules returns the schedule (callers must not mutate it).
func (p *Plan) Rules() []Rule { return p.rules }

// Seed returns the plan's seed.
func (p *Plan) Seed() int64 { return p.seed }

// DirSeed derives the deterministic sub-seed for the n-th connection
// instance of direction from→to — exported so scenario runners can print
// the schedule a seed implies and prove two runs drew from identical
// sources.
func (p *Plan) DirSeed(from, to string, instance int64) int64 {
	h := fnv.New64a()
	var b [8]byte
	for i := 0; i < 8; i++ {
		b[i] = byte(p.seed >> (8 * i))
	}
	h.Write(b[:])
	h.Write([]byte(from))
	h.Write([]byte{0})
	h.Write([]byte(to))
	h.Write([]byte{0})
	for i := 0; i < 8; i++ {
		b[i] = byte(instance >> (8 * i))
	}
	h.Write(b[:])
	return int64(h.Sum64())
}

// direction is the per-connection, per-direction decision state: the
// sub-seeded RNG and the pacing accumulator. It is owned by exactly one
// wrapper goroutine-side at a time; the mutex covers the RNG because the
// TCP shim's feed (writer side) and tests may probe concurrently.
type direction struct {
	p        *Plan
	from, to string

	mu     sync.Mutex
	rng    *rand.Rand    // guardedby: mu
	paceAt time.Duration // guardedby: mu — virtual floor the next frame may deliver at (ordering + bandwidth)
}

// newDirection allocates the decision state for one connection instance
// of from→to, bumping the plan's instance counter so reconnects draw
// from a fresh — but still seed-determined — stream.
func (p *Plan) newDirection(from, to string) *direction {
	key := from + "\x00" + to
	p.mu.Lock()
	n := p.seq[key]
	p.seq[key] = n + 1
	p.mu.Unlock()
	return &direction{
		p:    p,
		from: from,
		to:   to,
		rng:  rand.New(rand.NewSource(p.DirSeed(from, to, n))),
	}
}

// action is the resolved fate of one frame.
type action struct {
	drop      bool
	corrupt   bool
	truncate  bool
	duplicate bool
	reset     bool
	// deliverAt is the virtual instant the frame may be written out
	// (ordering-, delay- and bandwidth-adjusted).
	deliverAt time.Duration
}

// decide folds every matching rule into one action for a frame of size n
// observed now. Matching is evaluated per frame so a window opening
// mid-connection takes effect immediately.
func (d *direction) decide(now time.Duration, n int) action {
	d.mu.Lock()
	defer d.mu.Unlock()
	a := action{deliverAt: now}
	if d.paceAt > a.deliverAt {
		a.deliverAt = d.paceAt
	}
	for _, r := range d.p.rules {
		if !r.matches(d.from, d.to) || !r.Window.Contains(now) {
			continue
		}
		f := r.Fault
		switch f.Kind {
		case Drop:
			a.drop = true
		case Delay:
			delay := f.Delay
			if f.Jitter > 0 {
				delay += time.Duration(d.rng.Int63n(int64(f.Jitter)))
			}
			a.deliverAt += delay
		case Bandwidth:
			if f.BytesPerSec > 0 {
				a.deliverAt += time.Duration(int64(n) * int64(time.Second) / int64(f.BytesPerSec))
			}
		case Corrupt:
			if d.hitLocked(f.Prob) {
				a.corrupt = true
			}
		case Truncate:
			if d.hitLocked(f.Prob) {
				a.truncate = true
			}
		case Duplicate:
			if d.hitLocked(f.Prob) {
				a.duplicate = true
			}
		case Reset:
			if d.hitLocked(f.Prob) {
				a.reset = true
			}
		}
	}
	if a.drop {
		return a // dropped frames neither pace nor deliver
	}
	d.paceAt = a.deliverAt
	return a
}

// hitLocked draws one probabilistic decision under d.mu (the caller,
// decide, holds it); prob 0 means always (a scheduled
// window IS the gate), anything else is a Bernoulli trial.
func (d *direction) hitLocked(prob float64) bool {
	if prob <= 0 || prob >= 1 {
		return true
	}
	return d.rng.Float64() < prob
}
