// Package audit is the capture/replay subsystem: it turns the atomicity
// checker — until now limited to the operations one process observed —
// into a tool that verifies real multi-process deployments.
//
// # The problem
//
// regclient can check its own history because it holds one clock: every
// invocation and response it recorded is totally ordered. Two regclient
// processes hammering the same fleet have NO shared clock, and real-time
// order across them is not observable — so their histories were
// "individually, not jointly, checkable". Capture-and-offline-check is
// the standard answer: every process appends what it observed to a trace
// log, and an offline merge reconstructs one multi-client history.
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
// # The pieces
//
//   - Writer appends proto.TraceRecord frames to a per-process .trlog
//     file: TraceClientOp records via the history recorder's capture
//     sink (fastreg.WithCapture, regclient -capture), TraceServerHandle
//     records via transport.WithServerCapture (regserver -capture, and
//     the in-process fleet fastreg.WithCapture hosts);
//   - MergeFiles parses any set of logs — S−t of S replica logs and a
//     partial client log are still useful, just annotated — and joins
//     them into per-key histories with domain maps;
//   - Merge.Check replays the merged history through the atomicity
//     checker and produces per-key verdicts with binding notes;
//   - cmd/regaudit is the operator surface over both.
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
	return proto.TraceRecord{
		Kind: proto.TraceHeader, Origin: types.Server(replica).String(), Protocol: protocol,
		S: cfg.S, T: cfg.T, R: cfg.R, W: cfg.W,
		Server: types.Server(replica),
	}
}

// NewFileWriter creates (truncating) the capture log at path and writes
// its header record. A ServerHeader makes the log durable-before-visible
// (per-record flush, see Writer); a ClientHeader keeps it buffered.
func NewFileWriter(path string, header proto.TraceRecord) (*Writer, error) {
	if header.Kind != proto.TraceHeader {
		return nil, fmt.Errorf("audit: log must open with a header record, got %v", header.Kind)
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	w := &Writer{
		f: f, bw: bufio.NewWriterSize(f, 64<<10),
		durable: header.Server.Role == types.RoleServer,
		path:    path, header: header,
	}
	if err := proto.WriteTraceRecord(w.bw, header); err != nil {
		f.Close()
		return nil, err
	}
	if err := w.bw.Flush(); err != nil {
		f.Close()
		return nil, err
	}
	if st, err := f.Stat(); err == nil {
		w.mu.Lock()
		w.written = st.Size()
		w.mu.Unlock()
	}
	return w, nil
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
	if err := w.bw.Flush(); err != nil {
		w.err = err
		return
	}
	if err := w.f.Close(); err != nil {
		w.err = err
		return
	}
	w.seg++
	f, err := os.Create(SegmentPath(w.path, w.seg))
	if err != nil {
		w.err = err
		w.f = nil
		return
	}
	w.f = f
	w.bw = bufio.NewWriterSize(f, 64<<10)
	w.n = 0
	w.written = 0
	hdr, err := proto.EncodeTraceRecord(w.header)
	if err != nil {
		w.err = err
		return
	}
	if _, err := w.bw.Write(hdr); err != nil {
		w.err = err
		return
	}
	w.written = int64(len(hdr))
	w.err = w.bw.Flush()
}

// append writes one record under the lock — flushed immediately on
// durable (replica) logs, periodically on client logs, so a crash loses
// at most a bounded tail of a client's own operations.
func (w *Writer) append(rec proto.TraceRecord) {
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
	if w.n++; w.durable || w.n >= flushEvery {
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
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil || w.f == nil {
		return
	}
	buf, err := proto.AppendTraceRecord(proto.GetBuf(), proto.TraceRecord{Kind: proto.TraceEpoch, Epoch: n})
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
	w.n = 0
	w.err = w.bw.Flush()
	if w.maxBytes > 0 && w.written >= w.maxBytes && w.err == nil {
		w.rotateLocked()
	}
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
	w.append(rec)
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
	w.append(rec)
}

// Err reports the first latched I/O error.
func (w *Writer) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Flush forces buffered records to disk.
func (w *Writer) Flush() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return w.err
	}
	if err := w.bw.Flush(); err != nil && w.err == nil {
		w.err = err
	}
	return w.err
}

// Close flushes and closes the log. Safe to call more than once; later
// appends are dropped.
func (w *Writer) Close() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.f == nil {
		return w.err
	}
	if err := w.bw.Flush(); err != nil && w.err == nil {
		w.err = err
	}
	if err := w.f.Close(); err != nil && w.err == nil {
		w.err = err
	}
	w.f = nil
	return w.err
}
