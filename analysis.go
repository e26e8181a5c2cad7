package fastreg

import (
	"fastreg/internal/chains"
	"fastreg/internal/crucialinfo"
	"fastreg/internal/harness"
	"fastreg/internal/quorum"
	"fastreg/internal/register"
)

// FastReadFeasible reports the paper's necessary and sufficient condition
// for a fast-read (W2R1) implementation: R < S/t − 2 (Section 5).
func FastReadFeasible(servers, maxCrashes, readers int) bool {
	return quorum.Config{S: servers, T: maxCrashes, R: readers}.FastReadOK()
}

// MaxFastReaders returns the largest number of readers for which a W2R1
// implementation exists at the given S and t; -1 means unbounded (t = 0).
func MaxFastReaders(servers, maxCrashes int) int {
	return quorum.Config{S: servers, T: maxCrashes}.MaxFastReaders()
}

// ImpossibilityReport summarizes a run of the executable Theorem 1
// argument (Sections 3–4): the three-phase chain construction against a
// fast-write candidate.
type ImpossibilityReport struct {
	// Protocol is the candidate's name.
	Protocol string
	// Servers is S (t=1, W=2, R=2 fixed as in Section 3.1).
	Servers int
	// CriticalServer is the paper's s_i1 (0 if the candidate already
	// violated atomicity at a chain end, before Phase 2 was needed).
	CriticalServer int
	// ExecutionsChecked counts the constructed executions.
	ExecutionsChecked int
	// Violations counts the non-atomic ones; Theorem 1 guarantees ≥ 1.
	Violations int
	// FirstViolation locates the first violating execution ("phase/name").
	FirstViolation string
	// LinksHold reports that every indistinguishability the proof
	// constructs actually held — i.e. the violation is forced by the fast
	// write, not by nondeterminism.
	LinksHold bool
	// Summary is the human-readable report.
	Summary string
}

// ProveFastWriteImpossible runs the executable impossibility argument for
// W1R2 (Theorem 1) against the full-info fast-write candidate of Section
// 4.1 on S servers (S ≥ 3; t=1, W=2, R=2). It returns the violation the
// chain construction exhibits.
func ProveFastWriteImpossible(servers int) (*ImpossibilityReport, error) {
	return proveAgainst(crucialinfo.New(), servers)
}

// ProveFastWriteImpossibleFor runs the same argument against one of this
// package's own fast-write protocols (W1R2 or FullInfo).
func ProveFastWriteImpossibleFor(p Protocol, servers int) (*ImpossibilityReport, error) {
	impl, err := p.impl()
	if err != nil {
		return nil, err
	}
	return proveAgainst(impl, servers)
}

func proveAgainst(impl register.Protocol, servers int) (*ImpossibilityReport, error) {
	rep, err := chains.FindViolation(impl, servers)
	if err != nil {
		return nil, err
	}
	out := &ImpossibilityReport{
		Protocol:          rep.Protocol,
		Servers:           rep.S,
		ExecutionsChecked: len(rep.Verdicts),
		Violations:        len(rep.Violations),
		LinksHold:         rep.LinksHold,
		Summary:           rep.String(),
	}
	if rep.Alpha != nil {
		out.CriticalServer = rep.Alpha.Critical
	}
	if v := rep.First(); v != nil {
		out.FirstViolation = v.Phase + "/" + v.Execution
	}
	return out, nil
}

// FastReadBoundary sweeps the W2R1 feasibility boundary (Fig 9 / Section
// 5) for the given (S, t) pairs, exploring every script of each cell up to
// a fixed bound, and returns the rendered table.
func FastReadBoundary(configs [][2]int) string {
	return harness.RenderFig9(harness.Fig9(configs))
}
