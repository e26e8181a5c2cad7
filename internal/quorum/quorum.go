// Package quorum collects the quorum arithmetic the paper's protocols and
// bounds rely on:
//
//   - majority correctness for W2R2: t < S/2 (Lynch & Shvartsman);
//   - the fast-read bound: a W2R1 implementation exists iff R < S/t − 2
//     (Section 5);
//   - the admissibility quorum sizes S − a·t for degree a ∈ [1, R+1]
//     (Appendix A, Definition 4).
//
// Keeping this arithmetic in one place lets the protocols, the Fig 9 harness
// and the tests all agree on where the feasibility boundary falls, including
// the integer-division subtleties of "R ≥ S/t − 2" for non-divisible S/t.
package quorum

import "fmt"

// Config fixes the cluster shape: S servers of which at most T may crash,
// R readers and W writers.
type Config struct {
	S int // number of servers (≥ 2 in a replicated system)
	T int // crash tolerance t (≥ 0)
	R int // number of readers
	W int // number of writers
}

// Validate reports whether the configuration is structurally sound (not
// whether any particular protocol is implementable on it).
func (c Config) Validate() error {
	if c.S < 1 {
		return fmt.Errorf("quorum: S = %d, need at least one server", c.S)
	}
	if c.T < 0 || c.T >= c.S {
		return fmt.Errorf("quorum: t = %d out of range [0, S) with S = %d", c.T, c.S)
	}
	if c.R < 0 || c.W < 0 {
		return fmt.Errorf("quorum: negative client count R=%d W=%d", c.R, c.W)
	}
	return nil
}

// ReplyQuorum is the number of server replies a client round waits for:
// S − t. Waiting for more could block forever when t servers crash.
func (c Config) ReplyQuorum() int { return c.S - c.T }

// MajorityOK reports the W2R2 implementability condition t < S/2, i.e.
// 2t < S: any two (S−t)-quorums intersect.
func (c Config) MajorityOK() bool { return 2*c.T < c.S }

// FastReadOK reports the paper's necessary and sufficient condition for a
// W2R1 implementation: R < S/t − 2, equivalently R·t + 2t < S (integer-exact
// form; for t = 0 any R works because nothing can crash).
func (c Config) FastReadOK() bool {
	if c.T == 0 {
		return true
	}
	return c.R*c.T+2*c.T < c.S
}

// FastReadImpossible reports the impossibility side R ≥ S/t − 2. It is the
// exact negation of FastReadOK for t ≥ 1, kept explicit because Table 1
// states the two sides separately.
func (c Config) FastReadImpossible() bool { return !c.FastReadOK() }

// MaxFastReaders returns the largest R for which FastReadOK holds at this
// S and t, i.e. ⌈S/t⌉ − 3 rounded per the exact inequality R·t + 2t < S.
// For t = 0 there is no bound and the function returns -1.
func (c Config) MaxFastReaders() int {
	if c.T == 0 {
		return -1
	}
	// Largest R with R*t < S - 2t  ⇒  R = ceil((S-2t)/t) - 1 when divisible
	// care is needed; derive directly.
	r := (c.S - 2*c.T - 1) / c.T
	if r < 0 {
		return 0
	}
	return r
}

// AdmissibleQuorum is the quorum size S − a·t required for a value to be
// admissible with degree a (Appendix A, Definition 4(a)).
func (c Config) AdmissibleQuorum(a int) int { return c.S - a*c.T }

// MaxDegree is the largest admissibility degree the reader ever tests:
// R + 1 (Algorithm 1, line 25).
func (c Config) MaxDegree() int { return c.R + 1 }

// Intersect returns the guaranteed intersection size of two reply sets of
// sizes n1 and n2 out of S servers: n1 + n2 − S (clamped at 0).
func (c Config) Intersect(n1, n2 int) int {
	n := n1 + n2 - c.S
	if n < 0 {
		return 0
	}
	return n
}

// String renders the configuration compactly.
func (c Config) String() string {
	return fmt.Sprintf("S=%d t=%d R=%d W=%d", c.S, c.T, c.R, c.W)
}
