package audit

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"sort"

	"strings"

	"fastreg/internal/history"
	"fastreg/internal/proto"
	"fastreg/internal/quorum"
	"fastreg/internal/types"
	"fastreg/internal/vclock"
)

// TraceFile is one parsed capture log.
type TraceFile struct {
	Path    string
	Header  proto.TraceRecord
	Records []proto.TraceRecord

	// Truncated marks a log that ended mid-frame or in garbage — the
	// expected shape of a process killed with records still buffered. The
	// intact prefix is used; the flag feeds the coverage accounting.
	Truncated bool
}

// IsServer reports whether the log was written by a replica, and which.
func (f *TraceFile) IsServer() (replica int, ok bool) {
	if f.Header.Server.Role == types.RoleServer {
		return f.Header.Server.Index, true
	}
	return 0, false
}

// Origin names the recording process.
func (f *TraceFile) Origin() string { return f.Header.Origin }

// ReadTraceFile parses one capture log, tolerating a truncated tail.
func ReadTraceFile(path string) (*TraceFile, error) {
	fh, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer fh.Close()
	br := bufio.NewReaderSize(fh, 64<<10)
	first, err := proto.ReadTraceRecord(br)
	if err != nil {
		return nil, fmt.Errorf("audit: %s: not a capture log: %w", path, err)
	}
	if first.Kind != proto.TraceHeader {
		return nil, fmt.Errorf("audit: %s: log does not open with a header record", path)
	}
	f := &TraceFile{Path: path, Header: first}
	for {
		rec, err := proto.ReadTraceRecord(br)
		if err != nil {
			if errors.Is(err, io.EOF) && !errors.Is(err, io.ErrUnexpectedEOF) {
				return f, nil // clean end
			}
			f.Truncated = true // torn tail: keep the intact prefix
			return f, nil
		}
		if rec.Kind == proto.TraceHeader {
			f.Truncated = true // a header mid-file is corruption; stop here
			return f, nil
		}
		f.Records = append(f.Records, rec)
	}
}

// ReadSegments reads a base path's whole on-disk segment family
// (Writer.RotateAt) as one logical log: every segment's records
// concatenated in write order under the base segment's header. A log
// that never rotated reads identically to ReadTraceFile.
func ReadSegments(path string) (*TraceFile, error) {
	segs := Segments(path)
	out, err := ReadTraceFile(segs[0])
	if err != nil {
		return nil, err
	}
	for _, p := range segs[1:] {
		if out.Truncated {
			break // a torn segment ends the usable prefix
		}
		f, err := ReadTraceFile(p)
		if err != nil {
			return nil, err
		}
		out.Records = append(out.Records, f.Records...)
		out.Truncated = f.Truncated
	}
	return out, nil
}

// segmentBase recognizes a rotated segment path "<base>.<N>" and
// returns its base, so a caller listing both a base log and its
// segments doesn't merge the family twice.
func segmentBase(p string) (string, bool) {
	i := strings.LastIndexByte(p, '.')
	if i <= 0 || i == len(p)-1 {
		return "", false
	}
	for _, c := range p[i+1:] {
		if c < '0' || c > '9' {
			return "", false
		}
	}
	return p[:i], true
}

// KeyHistory is one key's merged multi-process execution with its clock
// domain map.
type KeyHistory struct {
	Key string
	Ops []history.Op

	domains map[history.ID]int // op.ID() → clock domain
	labels  []string           // shared across keys: domain → origin label
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
func (kh *KeyHistory) NumDomains() int {
	seen := make(map[int]struct{}, len(kh.labels))
	for _, op := range kh.Ops {
		seen[kh.domains[op.ID()]] = struct{}{}
	}
	return len(seen)
}

// DomainLabel names a domain for diagnostics.
func (kh *KeyHistory) DomainLabel(d int) string {
	if d >= 0 && d < len(kh.labels) {
		return kh.labels[d]
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
}

// opRef names one operation across the merged logs: the register key
// plus the op's (client, opID) identity, which is unique only per
// register key.
type opRef struct {
	key string
	id  history.ID
}

// recRef is the opRef a client-op or server-handle record names.
func recRef(rec proto.TraceRecord) opRef {
	return opRef{key: rec.Key, id: history.ID{Client: rec.Client, OpID: rec.OpID}}
}

// less orders refs by (key, client, opID): the deterministic order
// replica-evidence writes are synthesized in.
func (a opRef) less(b opRef) bool {
	if a.key != b.key {
		return a.key < b.key
	}
	if a.id.Client != b.id.Client {
		return a.id.Client.Less(b.id.Client)
	}
	return a.id.OpID < b.id.OpID
}

// seenHandle identifies one (replica, round) observation of a write, for
// retry deduplication.
type seenHandle struct {
	ref     opRef
	replica int
	round   uint8
}

// MergeFiles reads and joins a set of capture logs. Any mix works — all
// S replica logs plus every client's (the binding configuration), a
// subset after crashes, or client logs alone — with degraded coverage
// reported in Warnings and FullCoverage. Each path is read as a whole
// rotation family (path, path.1, path.2, …); explicitly listed segment
// paths whose base is also listed are skipped rather than double-read.
func MergeFiles(paths ...string) (*Merge, error) {
	if len(paths) == 0 {
		return nil, errors.New("audit: no trace logs to merge")
	}
	m := &Merge{
		Replicas: make(map[int][]*TraceFile),
		Keys:     make(map[string]*KeyHistory),
	}
	given := make(map[string]bool, len(paths))
	for _, p := range paths {
		given[p] = true
	}
	for _, p := range paths {
		if base, ok := segmentBase(p); ok && given[base] {
			continue // covered by the base path's family read
		}
		f, err := ReadSegments(p)
		if err != nil {
			return nil, err
		}
		m.Files = append(m.Files, f)
		if f.Truncated {
			m.warnf("%s: log truncated mid-record (process killed?); using the intact prefix", f.Origin())
		}
	}
	// All logs must describe one deployment.
	h0 := m.Files[0].Header
	m.Shape = quorum.Config{S: h0.S, T: h0.T, R: h0.R, W: h0.W}
	m.Protocol = h0.Protocol
	for _, f := range m.Files[1:] {
		h := f.Header
		if h.Protocol != m.Protocol || h.S != h0.S || h.T != h0.T || h.R != h0.R || h.W != h0.W {
			return nil, fmt.Errorf("audit: %s (%s %s) does not match %s (%s %s) — logs from different deployments",
				f.Origin(), h.Protocol, shapeStr(h),
				m.Files[0].Origin(), m.Protocol, shapeStr(h0))
		}
	}
	for _, f := range m.Files {
		if i, ok := f.IsServer(); ok {
			m.Replicas[i] = append(m.Replicas[i], f)
			if len(m.Replicas[i]) == 2 {
				m.warnf("multiple logs for replica s%d — a restarted replica or mixed runs; all are used", i)
			}
		} else {
			m.Clients = append(m.Clients, f)
		}
	}

	// Identity ownership: each reader/writer identity must live in one
	// client process. A collision (two logs driving w1 — concurrent
	// processes misconfigured, or the same identity across merged runs)
	// is survivable for the checker: the later file's ops are re-homed to
	// a fresh identity of the same role, which keeps per-op keys unique
	// while the clock-domain map still separates the two processes. But
	// replica evidence for a collided identity is ambiguous, so synthesis
	// skips it, and FullCoverage is off — concurrently reused identities
	// can also collide on tags, which nothing downstream can repair.
	owner := make(map[types.ProcID]int) // identity → client file index
	collided := make(map[types.ProcID]bool)
	alias := make(map[int]map[types.ProcID]types.ProcID) // client file → re-homing map
	nextIdx := map[types.Role]int{types.RoleReader: m.Shape.R, types.RoleWriter: m.Shape.W}
	aliasFor := func(fi int, id types.ProcID) types.ProcID {
		am := alias[fi]
		if am == nil {
			am = make(map[types.ProcID]types.ProcID)
			alias[fi] = am
		}
		a, ok := am[id]
		if !ok {
			nextIdx[id.Role]++
			a = types.ProcID{Role: id.Role, Index: nextIdx[id.Role]}
			am[id] = a
		}
		return a
	}
	for fi, f := range m.Clients {
		seen := make(map[types.ProcID]bool)
		for _, rec := range f.Records {
			if rec.Kind != proto.TraceClientOp || seen[rec.Client] {
				continue
			}
			seen[rec.Client] = true
			if prev, ok := owner[rec.Client]; ok && prev != fi {
				if !collided[rec.Client] {
					m.warnf("identity %s appears in both %s and %s — identities must be partitioned across processes (regclient -wbase/-rbase); later logs re-homed to a fresh identity and replica evidence for %s ignored",
						rec.Client, m.Clients[prev].Origin(), f.Origin(), rec.Client)
				}
				collided[rec.Client] = true
			} else {
				owner[rec.Client] = fi
			}
		}
	}

	// Domain labels: one per client log, then one per synthesized op.
	labels := make([]string, len(m.Clients))
	for i, f := range m.Clients {
		labels[i] = f.Origin()
	}

	// Pass 1: client operations, re-homed where identities collided.
	logged := make(map[opRef]bool) // original identities, all op kinds
	for fi, f := range m.Clients {
		for _, rec := range f.Records {
			if rec.Kind != proto.TraceClientOp {
				continue
			}
			logged[recRef(rec)] = true
			client := rec.Client
			if collided[client] && owner[client] != fi {
				client = aliasFor(fi, client)
			}
			op := history.Op{
				Client:   client,
				OpID:     rec.OpID,
				Kind:     rec.Op,
				Invoke:   vclock.Time(rec.Invoke),
				Response: vclock.Time(rec.Response),
				Value:    rec.Val,
			}
			if rec.Failed {
				op.Err = &capturedError{msg: rec.Err}
			}
			kh := m.key(rec.Key)
			kh.Ops = append(kh.Ops, op)
			kh.domains[op.ID()] = fi
		}
	}

	// Pass 2: replica evidence. Collect each write the fleet saw (an
	// Update from a writer identity), dedup retried rounds, and
	// synthesize the ones no client logged as optional pending writes in
	// fresh domains — the checker may linearize them where reads demand
	// or drop them, which is all a crashed client's write can claim.
	type candidate struct {
		val      types.Value
		replicas map[int]bool
	}
	cands := make(map[opRef]*candidate)
	handleSeen := make(map[seenHandle]bool)
	order := []opRef{} // deterministic synthesis order
	for ri, files := range m.Replicas {
		for _, f := range files {
			for _, rec := range f.Records {
				if rec.Kind != proto.TraceServerHandle || rec.Payload != proto.KindUpdate {
					continue
				}
				if rec.Client.Role != types.RoleWriter || rec.Val.IsInitial() {
					continue // read write-backs relay values; only writer updates originate them
				}
				if collided[rec.Client] {
					continue // ambiguous: two processes share this identity
				}
				ref := recRef(rec)
				sh := seenHandle{ref: ref, replica: ri, round: rec.Round}
				if handleSeen[sh] {
					m.DuplicateHandles++ // retried round, at-least-once delivery
					continue
				}
				handleSeen[sh] = true
				c, ok := cands[ref]
				if !ok {
					c = &candidate{val: rec.Val, replicas: make(map[int]bool)}
					cands[ref] = c
					order = append(order, ref)
				}
				c.replicas[ri] = true
				if c.val != rec.Val {
					m.warnf("replicas disagree on the value of %s on key %q (%s vs %s)",
						ref.id, ref.key, c.val, rec.Val)
				}
			}
		}
	}
	sort.Slice(order, func(i, j int) bool { return order[i].less(order[j]) })
	for _, ref := range order {
		if logged[ref] {
			continue // the client's own record is authoritative
		}
		kh := m.key(ref.key)
		op := history.Op{
			Client: ref.id.Client,
			OpID:   ref.id.OpID,
			Kind:   types.OpWrite,
			Invoke: 1, // pending: no response, interval unconstrained
			Value:  cands[ref].val,
		}
		dom := len(labels)
		labels = append(labels, fmt.Sprintf("replica-evidence(%s)", ref.id))
		kh.Ops = append(kh.Ops, op)
		kh.domains[ref.id] = dom
		m.Synthesized++
	}
	for _, kh := range m.Keys {
		kh.labels = labels
	}

	// Pass 3: served-value cross-check, per replica log (a restarted
	// replica restarts its counters, so each file stands alone).
	var replicaIdx []int
	for ri := range m.Replicas {
		replicaIdx = append(replicaIdx, ri)
	}
	sort.Ints(replicaIdx)
	for _, ri := range replicaIdx {
		for _, f := range m.Replicas[ri] {
			m.Stale = append(m.Stale, crossCheckFile(ri, f.Records)...)
		}
	}

	// Coverage: with all S replica logs intact and identities partitioned
	// every served value has a visible origin — see the package doc.
	m.FullCoverage = len(collided) == 0
	intact := 0
	for i := 1; i <= m.Shape.S; i++ {
		files, ok := m.Replicas[i]
		if !ok {
			continue
		}
		good := true
		for _, f := range files {
			if f.Truncated {
				good = false
			}
		}
		if good {
			intact++
		}
	}
	if intact < m.Shape.S {
		m.FullCoverage = false
		m.warnf("replica coverage %d/%d intact logs — writes seen only by unlogged replicas are invisible, so read-from-nowhere verdicts are not binding", intact, m.Shape.S)
	}
	return m, nil
}

// key returns (creating) the key's merged history. Domain labels are
// shared across keys and stamped onto every KeyHistory once the merge
// completes.
func (m *Merge) key(k string) *KeyHistory {
	kh, ok := m.Keys[k]
	if !ok {
		kh = &KeyHistory{Key: k, domains: make(map[history.ID]int)}
		m.Keys[k] = kh
	}
	return kh
}

// KeyNames returns the merged keys, sorted.
func (m *Merge) KeyNames() []string {
	out := make([]string, 0, len(m.Keys))
	for k := range m.Keys {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func (m *Merge) warnf(format string, args ...any) {
	m.Warnings = append(m.Warnings, fmt.Sprintf(format, args...))
}

// capturedError carries a failed operation's error text across the
// capture boundary (the checker only needs non-nil-ness; operators get
// the original message).
type capturedError struct{ msg string }

func (e *capturedError) Error() string {
	if e.msg == "" {
		return "operation failed (captured)"
	}
	return e.msg
}

func shapeStr(h proto.TraceRecord) string {
	return fmt.Sprintf("S=%d t=%d R=%d W=%d", h.S, h.T, h.R, h.W)
}
