// Package audit is the capture/replay subsystem: it verifies atomicity
// over real multi-process deployments, not just the operations one
// process observed.
//
// # The problem
//
// One process can check its own history because it holds one clock. Two
// client processes on one fleet share NO clock, so real-time order across
// them is not observable. Capture-and-offline-check is the standard
// answer: every process appends what it observed to a trace log, and the
// logs are joined into one multi-client history.
//
// # The model, and why the verdict is binding
//
// Each capture log is one CLOCK DOMAIN. Client logs record completed
// operations with their intervals in the recording process's own
// (per-key vclock) time; replica logs record every request a server
// handled and what it replied. The merge joins them per key:
//
//   - operations from one client log keep their intervals and share a
//     domain — within a process, real-time order IS observable and is
//     preserved in full;
//   - operations from different logs are never real-time ordered: the
//     offline checker (atomicity.CheckDomains) treats every cross-domain
//     pair as concurrent. This is not a shortcut but the truth of the
//     model — without a shared clock, "A finished before B started" is
//     fundamentally unobservable across processes, and imposing any such
//     edge could manufacture violations that never happened;
//   - writes observed at replicas but missing from every client log (a
//     client crashed before logging, or ran without -capture) are
//     synthesized as OPTIONAL pending writes — exactly the checker's
//     completion semantics for crashed operations — so other processes'
//     reads of those values check cleanly instead of reading "from
//     nowhere". Tags make this sound: a value's (ts, wid) tag names its
//     write uniquely, so the read-from relation survives the merge even
//     though no clock does.
//
// Everything the merged checker DOES assume is evidence in the logs:
// same-domain interval order, the read-from relation over tagged values,
// and per-key locality. A VIOLATED verdict therefore indicts the store,
// not the harness — it exhibits a key whose observed operations admit no
// legal linearization under assumptions strictly weaker than the
// single-process checker's. The one caveat is coverage: if replica logs
// are missing or truncated, a write may exist that no surviving log
// shows, and a read of it would look like a violation. Report.Binding
// tracks exactly this — with all S replica logs intact, every value any
// replica ever served has a visible origin, and verdicts are binding.
//
// # The pieces: one ingest, two drivers
//
//   - Writer appends proto.TraceRecord frames to a per-process .trlog
//     file: client ops via the history recorder's capture sink
//     (fastreg.WithCapture, regstorm -capture), handled requests via
//     transport.WithServerCapture (regserver -capture), and epoch
//     boundaries from the continuous-audit coordinator;
//   - the ingest (ingest.go) is the only reader of those frames: it
//     refuses logs from another deployment, cuts torn or corrupt logs at
//     their intact prefix, files client ops and replica evidence into
//     buckets, and settles each bucket — collided identities re-homed,
//     replica-only writes synthesized, coverage counted;
//   - one checker (window.go) decides a window of buckets against a
//     frontier and builds every per-key verdict;
//   - the Follower drives the ingest live, one bucket per epoch
//     (stream.go); MergeFiles drives it over closed logs, every record in
//     one bucket that Merge.Check decides with no frontier (merge.go);
//   - cmd/regaudit is the operator surface over both drivers.
package audit

import (
	"bufio"
	"fmt"
	"os"
	"sync"

	"fastreg/internal/history"
	"fastreg/internal/proto"
	"fastreg/internal/quorum"
	"fastreg/internal/types"
)

// TraceExt is the conventional file extension for capture logs.
const TraceExt = ".trlog"

// flushEvery bounds how many records may sit in the write buffer: a
// killed process loses at most this many trailing records (the merge
// tolerates the torn frame a kill can leave mid-flush).
const flushEvery = 64

// Writer appends trace records to one capture log. It is safe for
// concurrent use — operation sinks and server hooks fire from many
// goroutines — and latches the first I/O error rather than failing the
// traced process: capture is an observer, never a participant.
//
// Replica logs are DURABLE-BEFORE-VISIBLE: a server-log Writer flushes
// every record, and both server runtimes emit the capture record before
// the request's reply is sent — so any value a client ever observed has
// its write's record on disk, even if the replica is later killed -9 or
// its log is merged while the fleet is live. That property is what makes
// a mid-run or post-crash merge free of spurious read-from-nowhere
// verdicts: a read's value can always be traced to a write record.
// Client logs stay buffered (flushEvery): losing a client's own tail
// records only drops constraints — the writes among them resurface from
// replica evidence as optional operations — and never manufactures a
// violation.
type Writer struct {
	mu      sync.Mutex
	f       *os.File // guardedby: mu
	bw      *bufio.Writer
	n       int
	err     error
	durable bool

	// Rotation state (RotateAt): when the current segment reaches maxBytes
	// the writer seals it and continues in "<path>.<seg>", re-writing the
	// header so every segment is independently parseable. Segments are
	// never renamed — once a successor exists, a segment is immutable,
	// which is what lets the streaming follower tail by offset.
	path     string
	header   proto.TraceRecord
	maxBytes int64 // guardedby: mu — 0 = rotation off
	written  int64 // guardedby: mu — bytes appended to the current segment
	seg      int   // guardedby: mu — 0 for the base file, N for "<path>.N"
}

// ClientHeader builds the header record for a client process's log.
// label names the process (unique per capture directory by convention,
// e.g. "client-<pid>-<n>").
func ClientHeader(label, protocol string, cfg quorum.Config) proto.TraceRecord {
	return proto.TraceRecord{
		Kind: proto.TraceHeader, Origin: label, Protocol: protocol,
		S: cfg.S, T: cfg.T, R: cfg.R, W: cfg.W,
	}
}

// ServerHeader builds the header record for replica s_i's log. The
// replica's identity travels in the record's Server field — that is how
// the merge tells replica logs from client logs.
func ServerHeader(replica int, protocol string, cfg quorum.Config) proto.TraceRecord {
	h := ClientHeader(types.Server(replica).String(), protocol, cfg)
	h.Server = types.Server(replica)
	return h
}

// NewFileWriter creates (truncating) the capture log at path and writes
// its header record. A ServerHeader makes the log durable-before-visible
// (per-record flush, see Writer); a ClientHeader keeps it buffered.
func NewFileWriter(path string, header proto.TraceRecord) (*Writer, error) {
	if header.Kind != proto.TraceHeader {
		return nil, fmt.Errorf("audit: log must open with a header record, got %v", header.Kind)
	}
	w := &Writer{durable: header.Server.Role == types.RoleServer, path: path, header: header}
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := w.openLocked(); err != nil {
		return nil, err
	}
	return w, nil
}

// openLocked creates segment w.seg and writes the header to it unbuffered,
// so every segment is independently parseable from the moment it exists.
func (w *Writer) openLocked() error {
	w.f = nil
	f, err := os.Create(SegmentPath(w.path, w.seg))
	if err != nil {
		return err
	}
	hdr, err := proto.EncodeTraceRecord(w.header)
	if err == nil {
		_, err = f.Write(hdr)
	}
	if err != nil {
		f.Close()
		return err
	}
	w.f, w.bw, w.n, w.written = f, bufio.NewWriterSize(f, 64<<10), 0, int64(len(hdr))
	return nil
}

// RotateAt enables size-based log rotation: once the current segment
// holds at least maxBytes, it is sealed and writing continues in
// "<path>.1", "<path>.2", … — each opening with a fresh copy of the
// header. Long-running captures stay mergeable piecewise (Segments
// collects a base path's family; MergeFiles groups them back into one
// logical log). maxBytes ≤ 0 turns rotation off.
func (w *Writer) RotateAt(maxBytes int64) {
	w.mu.Lock()
	w.maxBytes = maxBytes
	w.mu.Unlock()
}

// SegmentPath names rotated segment n of a base log path (n = 0 is the
// base path itself).
func SegmentPath(path string, n int) string {
	if n == 0 {
		return path
	}
	return fmt.Sprintf("%s.%d", path, n)
}

// Segments returns the existing on-disk segment family of a base log
// path, in write order: path, path.1, path.2, … up to the first gap.
func Segments(path string) []string {
	segs := []string{path}
	for n := 1; ; n++ {
		p := SegmentPath(path, n)
		if _, err := os.Stat(p); err != nil {
			return segs
		}
		segs = append(segs, p)
	}
}

// rotateLocked seals the current segment and opens the next one with a
// fresh header. Called with mu held. Errors latch like any append error.
func (w *Writer) rotateLocked() {
	if w.err = w.bw.Flush(); w.err == nil {
		w.err = w.f.Close()
	}
	if w.err == nil {
		w.seg++
		w.err = w.openLocked()
	}
}

// append writes one record under the lock — flushed immediately on
// durable (replica) logs, when flush is set, and periodically on client
// logs, so a crash loses at most a bounded tail of a client's own
// operations.
func (w *Writer) append(rec proto.TraceRecord, flush bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil || w.f == nil {
		return
	}
	buf, err := proto.AppendTraceRecord(proto.GetBuf(), rec)
	if err != nil {
		w.err = err
		return
	}
	_, err = w.bw.Write(buf)
	w.written += int64(len(buf))
	proto.PutBuf(buf)
	if err != nil {
		w.err = err
		return
	}
	if w.n++; flush || w.durable || w.n >= flushEvery {
		w.n = 0
		w.err = w.bw.Flush()
	}
	if w.maxBytes > 0 && w.written >= w.maxBytes && w.err == nil {
		w.rotateLocked()
	}
}

// Epoch stamps an epoch-boundary record — the coordinator's Stamp hook
// (internal/epoch). Always flushed, on client logs too: the streaming
// follower treats a boundary's presence as "this log's view of the epoch
// is complete", so it must never sit in a buffer behind the records it
// fences.
func (w *Writer) Epoch(n uint64) {
	w.append(proto.TraceRecord{Kind: proto.TraceEpoch, Epoch: n}, true)
}

// Op is the client-capture sink (history recorder signature): it appends
// one TraceClientOp record per responded operation. Wire it via
// transport.WithOpCapture, or let fastreg.WithCapture do so.
func (w *Writer) Op(key string, op history.Op) {
	rec := proto.TraceRecord{
		Kind:     proto.TraceClientOp,
		Key:      key,
		Client:   op.Client,
		OpID:     op.OpID,
		Op:       op.Kind,
		Val:      op.Value,
		Invoke:   int64(op.Invoke),
		Response: int64(op.Response),
		Epoch:    op.Epoch,
	}
	if op.Err != nil {
		rec.Failed = true
		rec.Err = op.Err.Error()
	}
	w.append(rec, false)
}

// Handle is the replica-capture hook for transport.WithServerCapture:
// one TraceServerHandle record per handled request, with the value the
// request carried and the maximal value the reply served. seq is the
// key's handled counter read under the shard lock (zero when the hook
// has none) — the per-(replica,key) total order the served-value
// cross-check relies on.
func (w *Writer) Handle(env proto.Envelope, reply proto.Message, seq uint64) {
	rec := proto.TraceRecord{
		Kind:    proto.TraceServerHandle,
		Key:     env.Key,
		Client:  env.From,
		OpID:    env.OpID,
		Server:  env.To,
		Round:   env.Round,
		Payload: env.Payload.Kind(),
		Epoch:   env.Epoch,
		Seq:     seq,
	}
	if up, ok := env.Payload.(proto.Update); ok && up.Val != nil {
		rec.Val = *up.Val
	}
	switch m := reply.(type) {
	case proto.QueryAck:
		if m.Val != nil {
			rec.ReplyVal = *m.Val
		}
	case proto.FastReadAck:
		for _, e := range m.Vector {
			rec.ReplyVal = types.MaxValue(rec.ReplyVal, e.Val)
		}
	}
	w.append(rec, false)
}

// Flush forces buffered records to disk.
func (w *Writer) Flush() error { return w.finish(false) }

// Close flushes and closes the log. Safe to call more than once; later
// appends are dropped.
func (w *Writer) Close() error { return w.finish(true) }

func (w *Writer) finish(close bool) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return w.err
	}
	if err := w.bw.Flush(); err != nil && w.err == nil {
		w.err = err
	}
	if !close {
		return w.err
	}
	if err := w.f.Close(); err != nil && w.err == nil {
		w.err = err
	}
	w.f = nil
	return w.err
}
