package audit

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"
	"strconv"
	"strings"

	"fastreg/internal/history"
	"fastreg/internal/quorum"
)

// segmentBase recognizes a rotated segment path "<base>.<N>" and
// returns its base, so a caller listing both a base log and its
// segments doesn't merge the family twice.
func segmentBase(p string) (string, bool) {
	i := strings.LastIndexByte(p, '.')
	if _, err := strconv.ParseUint(p[i+1:], 10, 64); i <= 0 || err != nil {
		return "", false
	}
	return p[:i], true
}

// KeyHistory is one key's merged multi-process execution with its clock
// domain map.
type KeyHistory struct {
	Key string
	Ops []history.Op

	domains map[history.ID]int // op.ID() → clock domain
	labels  map[int]string     // clock domain → origin label
}

// History returns the merged execution as a checkable history.
func (kh *KeyHistory) History() history.History {
	ops := make([]history.Op, len(kh.Ops))
	copy(ops, kh.Ops)
	return history.History{Ops: ops}
}

// DomainOf is the clock-domain function for atomicity.CheckDomains.
func (kh *KeyHistory) DomainOf(op history.Op) int { return kh.domains[op.ID()] }

// NumDomains counts the distinct clock domains this key's operations
// span — how many independent processes touched the key.
func (kh *KeyHistory) NumDomains() int { return len(kh.labels) }

// DomainLabel names a domain for diagnostics.
func (kh *KeyHistory) DomainLabel(d int) string {
	if l, ok := kh.labels[d]; ok {
		return l
	}
	return fmt.Sprintf("domain-%d", d)
}

// Merge is the joined view of a set of capture logs: per-key multi-client
// histories plus the coverage bookkeeping that decides how binding the
// verdicts are.
type Merge struct {
	Shape    quorum.Config
	Protocol string

	Files    []*TraceFile
	Clients  []*TraceFile
	Replicas map[int][]*TraceFile

	Keys map[string]*KeyHistory

	// Warnings are human-readable merge anomalies (truncated logs,
	// identity collisions, shape mismatches survived, …).
	Warnings []string

	// Synthesized counts writes reconstructed from replica evidence
	// alone; DuplicateHandles counts replica records dropped as
	// retried-round duplicates.
	Synthesized      int
	DuplicateHandles int

	// Stale holds served-value cross-check findings: replies in which a
	// replica served a tag older than a value it had already committed
	// to — replica-local evidence of lost or forged state, binding on
	// the replica's own log alone (see StaleServe).
	Stale []StaleServe

	// FullCoverage is true when every one of the shape's S replicas
	// contributed an untruncated log and no client identity collided —
	// the condition under which every value the fleet ever served has a
	// visible origin, making VIOLATED verdicts binding (see package doc).
	FullCoverage bool

	// in is the drained ingest: its bucket 0 is the one window Check
	// decides, against an empty frontier.
	in *Follower
}

// MergeFiles reads and joins a set of capture logs. Any mix works — all
// S replica logs plus every client's (the binding configuration), a
// subset after crashes, or client logs alone — with degraded coverage
// reported in Warnings and FullCoverage. Each path is read as a whole
// rotation family (path, path.1, path.2, …); explicitly listed segment
// paths whose base is also listed are skipped rather than double-read.
//
// It is the follower's ingest drained over closed files: every record
// lands in one bucket whatever its epoch tag, untagged ones included.
// Every replica is trusted; see MergeFilesUntrusted.
func MergeFiles(paths ...string) (*Merge, error) { return MergeFilesUntrusted(nil, paths...) }

// MergeFilesUntrusted is MergeFiles with the replicas (1-based) the test
// declares untrusted, as FollowOptions.Untrusted describes.
func MergeFilesUntrusted(untrusted []int, paths ...string) (*Merge, error) {
	if len(paths) == 0 {
		return nil, errors.New("audit: no trace logs to merge")
	}
	f := NewFollower(FollowOptions{Untrusted: untrusted})
	f.whole = true
	defer f.Close()
	for _, p := range paths {
		if base, ok := segmentBase(p); ok && slices.Contains(paths, base) {
			continue // covered by the base path's family read
		}
		if err := f.AddLog(p); err != nil {
			return nil, err
		}
	}
	f.seal()
	m := &Merge{
		Shape:    f.shape,
		Replicas: make(map[int][]*TraceFile),
		Keys:     make(map[string]*KeyHistory),
		Stale:    f.staleBuf,
		in:       f,
	}
	for _, l := range f.order {
		if l.err != nil {
			return nil, l.err
		}
		m.Files = append(m.Files, &l.TraceFile)
		if i, ok := l.IsServer(); ok {
			m.Replicas[i] = append(m.Replicas[i], &l.TraceFile)
		} else {
			m.Clients = append(m.Clients, &l.TraceFile)
		}
	}
	m.Protocol = f.first.Header.Protocol
	// Findings in replica order; one replica's in log order.
	sort.SliceStable(m.Stale, func(i, j int) bool { return m.Stale[i].Replica < m.Stale[j].Replica })

	b := f.bucket(0)
	f.synthesize(b)
	for key, ops := range b.keys {
		kh := &KeyHistory{Key: key, Ops: ops, domains: make(map[history.ID]int, len(ops)), labels: make(map[int]string)}
		for i, op := range ops {
			d := b.doms[key][i]
			kh.domains[op.ID()] = d
			if _, ok := kh.labels[d]; !ok {
				kh.labels[d] = f.label(d, op)
			}
		}
		m.Keys[key] = kh
	}
	m.Synthesized, m.DuplicateHandles = b.synthCount, b.dupHandles
	intact, caveat := f.coverage()
	m.FullCoverage = caveat == ""
	m.Warnings = f.Warnings
	if intact < m.Shape.S {
		m.Warnings = append(m.Warnings, fmt.Sprintf("replica coverage %d/%d intact logs — writes seen only by unlogged replicas are invisible, so read-from-nowhere verdicts are not binding", intact, m.Shape.S))
	}
	return m, nil
}

// Coverage is the one line every capture-dir check opens with: how many
// logs merged, and how many of the shape's replicas have every log
// intact — "4 logs (1 client, 3/3 replicas)".
func (m *Merge) Coverage() string {
	intact, _ := m.in.coverage()
	return fmt.Sprintf("%d logs (%d client, %d/%d replicas)", len(m.Files), len(m.Clients), intact, m.Shape.S)
}

// KeyNames returns the merged keys, sorted.
func (m *Merge) KeyNames() []string { return slices.Sorted(maps.Keys(m.Keys)) }
