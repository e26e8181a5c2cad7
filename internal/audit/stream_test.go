package audit

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"fastreg/internal/history"
	"fastreg/internal/mwabd"
	"fastreg/internal/proto"
	"fastreg/internal/quorum"
	"fastreg/internal/transport"
	"fastreg/internal/types"
	"fastreg/internal/vclock"
)

// rotatedClientLog writes 40 untagged client writes through a
// size-capped writer, splitting the log into a .trlog.N segment family.
func rotatedClientLog(t *testing.T) string {
	cfg := quorum.Config{S: 3, T: 1, R: 1, W: 1}
	return handLog(t, filepath.Join(t.TempDir(), "client.trlog"), ClientHeader("client-1", "W2R2", cfg), func(w *Writer) {
		w.RotateAt(512)
		for i := 1; i <= 40; i++ {
			v := types.Value{Tag: types.Tag{TS: int64(i), WID: types.Writer(1)}, Data: fmt.Sprintf("v%02d", i)}
			w.Op("k", history.Op{
				Client: types.Writer(1), OpID: uint64(i), Kind: types.OpWrite,
				Invoke: vclock.Time(2*i - 1), Response: vclock.Time(2 * i), Value: v,
			})
		}
	})
}

// TestWriterRotationMerge: MergeFiles given only the base path of a
// rotated log reassembles the whole history across segments — its
// epoch-0 records included.
func TestWriterRotationMerge(t *testing.T) {
	const n = 40
	path := rotatedClientLog(t)
	segs := Segments(path)
	if len(segs) < 3 {
		t.Fatalf("512-byte cap over %d records made %d segment(s), want >= 3", n, len(segs))
	}
	m, err := MergeFiles(path)
	if err != nil {
		t.Fatal(err)
	}
	rep := m.Check()
	if !rep.Clean {
		t.Fatalf("rotated clean history flagged:\n%s", rep.Summary())
	}
	if rep.Operations != n {
		t.Fatalf("merged %d ops across segments, want %d", rep.Operations, n)
	}
	// Listing every segment explicitly must not double the history.
	m2, err := MergeFiles(segs...)
	if err != nil {
		t.Fatal(err)
	}
	if rep2 := m2.Check(); rep2.Operations != n {
		t.Fatalf("explicit segment list merged %d ops, want %d", rep2.Operations, n)
	}
}

// forgeStaleReplicaLog writes a log for replica s<replica> whose own
// records convict it: an applied update committed tag 5, then a later
// reply served tag 2 — stale by the replica's own committed state. A
// non-zero epoch tags both records and stamps its boundary.
func forgeStaleReplicaLog(t *testing.T, dir string, replica int, epoch uint64) string {
	t.Helper()
	cfg := quorum.Config{S: 3, T: 1, R: 1, W: 1}
	path := filepath.Join(dir, fmt.Sprintf("s%d.trlog", replica))
	w, err := NewFileWriter(path, ServerHeader(replica, "W2R2", cfg))
	if err != nil {
		t.Fatal(err)
	}
	v5 := types.Value{Tag: types.Tag{TS: 5, WID: types.Writer(1)}, Data: "new"}
	v2 := types.Value{Tag: types.Tag{TS: 2, WID: types.Writer(1)}, Data: "old"}
	up := proto.Envelope{From: types.Writer(1), To: types.Server(replica), Key: "k", OpID: 1, Round: 1, Epoch: epoch, Payload: proto.Update{Val: &v5}}
	w.Handle(up, proto.UpdateAck{}, 1)
	rd := proto.Envelope{From: types.Reader(1), To: types.Server(replica), Key: "k", OpID: 2, Round: 1, Epoch: epoch, Payload: proto.Query{}}
	w.Handle(rd, proto.QueryAck{Val: &v2}, 2)
	if epoch > 0 {
		w.Epoch(epoch)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCrossCheckStaleServe: the offline merge surfaces a served-value
// regression as a binding violation even when no client log exists to
// catch it end to end.
func TestCrossCheckStaleServe(t *testing.T) {
	path := forgeStaleReplicaLog(t, t.TempDir(), 1, 0)
	m, err := MergeFiles(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Stale) != 1 {
		t.Fatalf("cross-check found %d stale serves, want 1: %+v", len(m.Stale), m.Stale)
	}
	s := m.Stale[0]
	if s.Replica != 1 || s.Key != "k" {
		t.Fatalf("finding misattributed: %+v", s)
	}
	rep := m.Check()
	if rep.Clean {
		t.Fatal("stale serve did not flip the verdict")
	}
	if !strings.Contains(rep.Summary(), "stale replica serve") {
		t.Fatalf("summary does not name the stale serve:\n%s", rep.Summary())
	}
}

// TestCrossCheckBottomServe: a replica that falls back to ⊥ after
// applying a write is convicted for every value-serving reply (QueryAck,
// TagAck, FastReadAck) that carries ⊥, offline and streaming; its plain
// acks and a request it dropped serve nothing and are not findings.
func TestCrossCheckBottomServe(t *testing.T) {
	cfg := quorum.Config{S: 3, T: 1, R: 1, W: 1}
	path := handLog(t, filepath.Join(t.TempDir(), "s2.trlog"), ServerHeader(2, "W2R1", cfg), func(w *Writer) {
		v5 := types.Value{Tag: types.Tag{TS: 5, WID: types.Writer(1)}, Data: "new"}
		bottom := types.InitialValue()
		env := func(op uint64, from types.ProcID, m proto.Message) proto.Envelope {
			return proto.Envelope{From: from, To: types.Server(2), Key: "k", OpID: op, Round: 1, Payload: m}
		}
		w.Handle(env(1, types.Writer(1), proto.Update{Val: &v5}), proto.UpdateAck{}, 1)
		w.Handle(env(2, types.Reader(1), proto.Query{}), proto.QueryAck{Val: &bottom}, 2)
		w.Handle(env(3, types.Writer(1), proto.TagQuery{}), proto.TagAck{Tag: &bottom.Tag}, 3)
		w.Handle(env(4, types.Reader(1), proto.FastRead{}), proto.FastReadAck{Vector: []proto.VectorEntry{{Val: bottom}}}, 4)
		w.Handle(env(5, types.Writer(1), proto.Update{Val: &bottom}), proto.UpdateAck{}, 5)
		w.Handle(env(6, types.Writer(1), proto.Update{}), nil, 6)
	})
	m, err := MergeFiles(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Stale) != 3 {
		t.Fatalf("offline cross-check found %d stale serves, want 3 (seqs 2, 3, 4): %+v", len(m.Stale), m.Stale)
	}
	for i, s := range m.Stale {
		if s.Replica != 2 || s.Seq != uint64(i+2) || !s.Served.IsInitial() || s.Known.Tag.TS != 5 {
			t.Fatalf("finding %d: %+v, want s2 serving ⊥ at seq %d after (5,w1)", i, s, i+2)
		}
	}
	f := NewFollower(FollowOptions{})
	defer f.Close()
	if err := f.AddLog(path); err != nil {
		t.Fatal(err)
	}
	f.Poll()
	f.Drain()
	if got := f.PendingStale(); len(got) != 3 {
		t.Fatalf("follower found %d stale serves, want 3 (warnings: %v)", len(got), f.Warnings)
	}
}

// TestFollowerCrossCheck: the streaming path surfaces the same
// replica-side finding, via Drain's holdback flush when no epoch ever
// closes.
func TestFollowerCrossCheck(t *testing.T) {
	path := forgeStaleReplicaLog(t, t.TempDir(), 1, 0)
	f := NewFollower(FollowOptions{})
	defer f.Close()
	if err := f.AddLog(path); err != nil {
		t.Fatal(err)
	}
	f.Poll()
	f.Drain()
	if got := f.PendingStale(); len(got) != 1 {
		t.Fatalf("follower found %d stale serves, want 1 (warnings: %v)", len(got), f.Warnings)
	}
}

// TestConductVerdict: the served-value cross-check convicts a replica
// from its own log, and the verdict weighs each conviction against the
// declared untrusted set and t=1. Offline and follow reach the same
// verdict, whether the findings close an epoch or stay pending.
func TestConductVerdict(t *testing.T) {
	cases := []struct {
		name      string
		stale     []int // replicas whose logs convict them
		untrusted []int
		clean     bool
		line      string
	}{
		{"declared, within budget", []int{1}, []int{1}, true, "s1 convicted: 1 stale serves (declared, within budget 1)\n"},
		{"undeclared", []int{1}, nil, false, "s1 convicted: 1 stale serves (NOT declared untrusted)\n"},
		{"another replica declared", []int{1}, []int{2}, false, "s1 convicted: 1 stale serves (NOT declared untrusted)\n"},
		{"declared, over budget", []int{1, 2}, []int{1, 2}, false, "s2 convicted: 1 stale serves (declared, over budget 1: 2 replicas convicted)\n"},
	}
	for _, tc := range cases {
		for _, epoch := range []uint64{0, 1} {
			t.Run(fmt.Sprintf("%s/epoch=%d", tc.name, epoch), func(t *testing.T) {
				dir := t.TempDir()
				var paths []string
				for _, r := range tc.stale {
					paths = append(paths, forgeStaleReplicaLog(t, dir, r, epoch))
				}
				m, err := MergeFilesUntrusted(tc.untrusted, paths...)
				if err != nil {
					t.Fatal(err)
				}
				rep := m.Check()
				if !rep.Atomic || rep.Clean != tc.clean || !strings.Contains(rep.Summary(), tc.line) {
					t.Fatalf("offline: atomic=%v clean=%v, want true/%v and %q:\n%s", rep.Atomic, rep.Clean, tc.clean, tc.line, rep.Summary())
				}
				var vs []EpochVerdict
				f := NewFollower(FollowOptions{Untrusted: tc.untrusted, OnVerdict: func(v EpochVerdict) { vs = append(vs, v) }})
				defer f.Close()
				for _, p := range paths {
					if err := f.AddLog(p); err != nil {
						t.Fatal(err)
					}
				}
				f.Poll()
				f.Drain()
				if f.Violated() == tc.clean || !strings.Contains(f.Conduct().String(), tc.line) {
					t.Fatalf("follow: violated=%v, want %v and %q: %s", f.Violated(), !tc.clean, tc.line, f.Conduct())
				}
				if epoch > 0 && (len(vs) != 1 || vs[0].Clean != tc.clean) {
					t.Fatalf("follow: epoch verdicts %+v, want one with clean=%v", vs, tc.clean)
				}
			})
		}
	}
}

// TestUntrustedLogIsNoEvidence: a write that only a declared-untrusted
// replica's log shows is not synthesized, so a read of its forged value
// reads from nowhere; undeclared, the same log explains the read.
func TestUntrustedLogIsNoEvidence(t *testing.T) {
	cfg := quorum.Config{S: 3, T: 1, R: 1, W: 1}
	dir := t.TempDir()
	forged := types.Value{Tag: types.Tag{TS: 9, WID: types.Writer(1)}, Data: "FORGED"}
	var paths []string
	for i := 1; i <= cfg.S; i++ {
		paths = append(paths, handLog(t, filepath.Join(dir, fmt.Sprintf("s%d.trlog", i)), ServerHeader(i, "W2R2", cfg), func(w *Writer) {
			if i == 3 {
				up := proto.Envelope{From: types.Writer(1), To: types.Server(3), Key: "k", OpID: 7, Round: 2, Payload: proto.Update{Val: &forged}}
				w.Handle(up, proto.UpdateAck{}, 1)
			}
		}))
	}
	paths = append(paths, handLog(t, filepath.Join(dir, "client.trlog"), ClientHeader("client-1", "W2R2", cfg), func(w *Writer) {
		w.Op("k", history.Op{Client: types.Reader(1), OpID: 1, Kind: types.OpRead, Invoke: 1, Response: 2, Value: forged})
	}))
	for _, untrusted := range [][]int{nil, {3}} {
		m, err := MergeFilesUntrusted(untrusted, paths...)
		if err != nil {
			t.Fatal(err)
		}
		rep := m.Check()
		trusted, synth := untrusted == nil, 0
		if trusted {
			synth = 1
		}
		if rep.Atomic != trusted || rep.Clean != trusted || m.Synthesized != synth {
			t.Fatalf("untrusted %v: atomic=%v clean=%v, %d synthesized:\n%s", untrusted, rep.Atomic, rep.Clean, m.Synthesized, rep.Summary())
		}
	}
}

// TestWindowEquivalenceClean: the streaming windowed checker and the
// offline merge agree on a clean multi-epoch run — same op count, every
// epoch CLEAN — with rotation forcing the follower across segment
// boundaries and incremental polls exercising live tailing.
func TestWindowEquivalenceClean(t *testing.T) {
	env := newClusterEnv(t, w2r2Shape, mwabd.New())
	for _, w := range env.writers {
		w.RotateAt(2048)
	}
	c, cw := env.client(t)
	cw.RotateAt(2048)

	f := NewFollower(FollowOptions{})
	defer f.Close()
	ctx := context.Background()
	const epochs, opsPer = 4, 10
	for e := 0; e < epochs; e++ {
		for i := 0; i < opsPer; i++ {
			k := fmt.Sprintf("k%d", i%3)
			if _, err := c.Write(ctx, k, 1+i%env.cfg.W, fmt.Sprintf("e%d-%d", e, i)); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Read(ctx, k, 1+i%env.cfg.R); err != nil {
				t.Fatal(err)
			}
		}
		env.cut(t)
		// Tail what's on disk so far: flushes lag the appends (client
		// logs buffer), which is exactly what a live follower sees.
		for _, w := range env.writers {
			w.Flush()
		}
		cw.Flush()
		for _, p := range env.paths {
			if err := f.AddLog(p); err != nil {
				t.Fatal(err)
			}
		}
		f.Poll()
	}
	env.finish(t) // closes the last traffic-bearing epoch
	if f.CleanEpochs+f.ViolatedEpochs == 0 {
		t.Fatal("no epoch finalized during live polling")
	}

	rep := env.mergeNow(t).Check()
	if !rep.Clean {
		t.Fatalf("offline verdict not clean:\n%s", rep.Summary())
	}

	f.Poll()
	f.Drain()
	if hasWarning(f.Warnings, "client record") {
		t.Fatalf("client record straggled: %v", f.Warnings)
	}
	if f.ViolatedEpochs != 0 {
		t.Fatalf("windowed checker violated %d epoch(s) on a clean run", f.ViolatedEpochs)
	}
	if f.CleanEpochs < epochs {
		t.Fatalf("finalized %d clean epochs, want >= %d", f.CleanEpochs, epochs)
	}
	if f.TotalOps != rep.Operations {
		t.Fatalf("windowed saw %d completed ops, offline saw %d", f.TotalOps, rep.Operations)
	}
}

// TestWindowEquivalenceViolated: a replica that serves a stale read
// mid-run is flagged by BOTH paths — the offline merge and the windowed
// verdict stream — so going streaming gives up no detection power.
func TestWindowEquivalenceViolated(t *testing.T) {
	env := newClusterEnv(t, w2r2Shape, mwabd.New(), transport.WithStaleReadFault(4))
	c, _ := env.client(t)
	ctx := context.Background()
	if _, err := c.Write(ctx, "k", 1, "real"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read(ctx, "k", 1); err != nil {
		t.Fatal(err)
	}
	env.cut(t)
	// Every replica is poisoned now: this read returns the initial value
	// after "real" was both written and read — non-atomic.
	v, err := c.Read(ctx, "k", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !v.IsInitial() {
		t.Fatalf("post-poison read got %v, fault not triggered", v)
	}
	env.cut(t)
	env.finish(t)

	rep := env.mergeNow(t).Check()
	if rep.Clean {
		t.Fatalf("offline check missed the stale read:\n%s", rep.Summary())
	}
	f, _ := drainFollower(t, env.paths)
	if f.ViolatedEpochs == 0 {
		t.Fatalf("windowed checker missed the violation the offline check caught (clean=%d, warnings=%v)",
			f.CleanEpochs, f.Warnings)
	}
}

// drainFollower follows closed logs to the end and returns the follower
// with every verdict it emitted.
func drainFollower(t *testing.T, paths []string) (*Follower, []EpochVerdict) {
	t.Helper()
	var vs []EpochVerdict
	f := NewFollower(FollowOptions{OnVerdict: func(v EpochVerdict) { vs = append(vs, v) }})
	t.Cleanup(f.Close)
	for _, p := range paths {
		if err := f.AddLog(p); err != nil {
			t.Fatal(err)
		}
	}
	f.Poll()
	f.Drain()
	return f, vs
}

// TestDriversAgree runs the package's fixtures through both drivers of
// the one ingest. Offline, every record lands in one window, untagged
// ones included; a drained follower sees the same logs epoch by epoch
// wherever they carry epoch stamps. Both must reach the same clean or
// violated verdict, the same binding status and the same completed-op
// count, and raise the same collision and deployment warnings.
func TestDriversAgree(t *testing.T) {
	cases := []struct {
		name     string
		logs     func(t *testing.T) []string
		followed bool // the logs carry epoch stamps
		clean    bool
		binding  bool
		ops      int
	}{
		{"clean", func(t *testing.T) []string { return runClean(t).paths }, true, true, true, 48},
		{"rotation across segments", func(t *testing.T) []string { return []string{rotatedClientLog(t)} }, false, true, true, 40},
		{"stale fault", func(t *testing.T) []string { return runStaleFault(t).paths }, true, false, true, 3},
		{"stale fault, S-1 replica logs", func(t *testing.T) []string { return runStaleFault(t).paths[1:] }, true, false, false, 3},
		{"dedup of retried rounds", dedupLogs, true, true, true, 0},
		{"crashed client's write", runCrashedClient, true, true, true, 1},
		{"partial replica logs", func(t *testing.T) []string { p, _ := runPartial(t); return p }, true, true, true, 12},
		{"collision", func(t *testing.T) []string { return runCollision(t, false).paths }, true, true, true, 2},
		{"collision, stale fault", func(t *testing.T) []string { return runCollision(t, true).paths }, true, false, false, 4},
		{"stale replica log", func(t *testing.T) []string { return []string{forgeStaleReplicaLog(t, t.TempDir(), 1, 1)} }, true, false, true, 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			paths := tc.logs(t)
			m, err := MergeFiles(paths...)
			if err != nil {
				t.Fatal(err)
			}
			rep := m.Check()
			if rep.Clean != tc.clean || rep.Binding != tc.binding || rep.Operations != tc.ops {
				t.Fatalf("offline: clean=%v binding=%v ops=%d, want %v/%v/%d\n%s",
					rep.Clean, rep.Binding, rep.Operations, tc.clean, tc.binding, tc.ops, rep.Summary())
			}
			for _, v := range rep.Violated() {
				if !v.Binding && !hasWarning(v.Notes, "NOT BINDING") {
					t.Fatalf("offline: non-binding %q carries no NOT BINDING note: %v", v.Key, v.Notes)
				}
			}
			if !tc.followed {
				return
			}
			f, vs := drainFollower(t, paths)
			for _, v := range vs {
				// A window that dropped records — a third replica's handle
				// landing after its boundary, say — cannot bind, whatever
				// the offline verdict says.
				if want := tc.binding && v.Stragglers+v.Unepoched == 0; len(v.Violations) > 0 && v.Binding != want {
					t.Fatalf("follow: epoch %d binding=%v, want %v: %s", v.Epoch, v.Binding, want, v)
				}
				for _, kv := range v.Violations {
					if !kv.Binding && !hasWarning(kv.Notes, "NOT BINDING") {
						t.Fatalf("follow: non-binding %q carries no NOT BINDING note: %v", kv.Key, kv.Notes)
					}
				}
			}
			clean := f.ViolatedEpochs == 0 && len(f.PendingStale()) == 0
			if len(vs) == 0 || clean != tc.clean || f.TotalOps != tc.ops {
				t.Fatalf("follow: %d verdicts, clean=%v ops=%d, want %v/%d (warnings %v)",
					len(vs), clean, f.TotalOps, tc.clean, tc.ops, f.Warnings)
			}
			for _, w := range []string{"appears in both", "does not match"} {
				if hasWarning(m.Warnings, w) != hasWarning(f.Warnings, w) {
					t.Fatalf("%q warned offline %v, follow %v", w, m.Warnings, f.Warnings)
				}
			}
		})
	}
}

// handLog writes one capture log by hand: the header, then whatever
// records fill adds.
func handLog(t *testing.T, path string, hdr proto.TraceRecord, fill func(w *Writer)) string {
	t.Helper()
	w, err := NewFileWriter(path, hdr)
	if err != nil {
		t.Fatal(err)
	}
	fill(w)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// staleReadLogs hand-writes a fully covered run whose epoch 1 holds a
// stale read: w1 writes v1 and responds, then r1 reads the initial
// value. With unepoched set, the client log also holds a record with no
// epoch tag, which the follower must drop.
func staleReadLogs(t *testing.T, unepoched bool) []string {
	dir := t.TempDir()
	cfg := quorum.Config{S: 3, T: 1, R: 1, W: 1}
	var paths []string
	for i := 1; i <= cfg.S; i++ {
		paths = append(paths, handLog(t, filepath.Join(dir, fmt.Sprintf("s%d.trlog", i)), ServerHeader(i, "W2R2", cfg),
			func(w *Writer) { w.Epoch(1) }))
	}
	v1 := types.Value{Tag: types.Tag{TS: 1, WID: types.Writer(1)}, Data: "v1"}
	return append(paths, handLog(t, filepath.Join(dir, "client.trlog"), ClientHeader("client-1", "W2R2", cfg), func(w *Writer) {
		w.Op("k", history.Op{Client: types.Writer(1), OpID: 1, Kind: types.OpWrite, Invoke: 1, Response: 2, Value: v1, Epoch: 1})
		w.Op("k", history.Op{Client: types.Reader(1), OpID: 1, Kind: types.OpRead, Invoke: 3, Response: 4, Value: types.InitialValue(), Epoch: 1})
		if unepoched {
			w.Op("k", history.Op{Client: types.Reader(1), OpID: 2, Kind: types.OpRead, Invoke: 5, Response: 6, Value: v1})
		}
		w.Epoch(1)
	}))
}

// TestFollowDroppedRecordsNotBinding: a violated epoch whose window
// dropped a record is not binding — the dropped record could have been
// the write that explains the read — and its line says how many went.
func TestFollowDroppedRecordsNotBinding(t *testing.T) {
	for _, unepoched := range []bool{false, true} {
		_, vs := drainFollower(t, staleReadLogs(t, unepoched))
		if len(vs) != 1 || vs[0].Clean {
			t.Fatalf("unepoched=%v: want one violated epoch, got %+v", unepoched, vs)
		}
		v := vs[0]
		if v.Binding == unepoched {
			t.Fatalf("unepoched=%v: binding=%v", unepoched, v.Binding)
		}
		line := v.String()
		if unepoched != (strings.Contains(line, "1 unepoched dropped") && strings.Contains(line, "not binding")) {
			t.Fatalf("unepoched=%v: verdict line %q", unepoched, line)
		}
	}
}

// TestFollowRefusesForeignDeployment: a followed log whose header names
// another protocol or shape is refused with a warning instead of being
// mixed in — here it holds a read of a value nobody wrote.
func TestFollowRefusesForeignDeployment(t *testing.T) {
	env := runClean(t)
	forged := types.Value{Tag: types.Tag{TS: 99, WID: types.Writer(1)}, Data: "forged"}
	for _, hdr := range []proto.TraceRecord{
		ClientHeader("other", "W2R1", env.cfg),
		ClientHeader("other", env.p.Name(), quorum.Config{S: 5, T: 1, R: 4, W: 4}),
	} {
		path := handLog(t, filepath.Join(t.TempDir(), "other.trlog"), hdr, func(w *Writer) {
			w.Op("alpha", history.Op{Client: types.Reader(1), OpID: 99, Kind: types.OpRead, Invoke: 1, Response: 2, Value: forged, Epoch: 1})
			w.Epoch(1)
		})
		f, _ := drainFollower(t, append(env.paths[:len(env.paths):len(env.paths)], path))
		if f.ViolatedEpochs != 0 || f.TotalOps != 48 {
			t.Fatalf("foreign log mixed in: %d violated epochs, %d ops", f.ViolatedEpochs, f.TotalOps)
		}
		if !hasWarning(f.Warnings, "does not match") {
			t.Fatalf("foreign log not refused: %v", f.Warnings)
		}
	}
}

// TestWindowDomainsPerRegister: opIDs are per (register key, client), so
// a replica-evidence-only write synthesized on one key in a fresh clock
// domain must not relabel the same-named client op on another key. If it
// did, the client's completed write on key b would leave its reader's
// domain, its real-time edge to the later stale read would be dropped,
// and the violation would check CLEAN.
func TestWindowDomainsPerRegister(t *testing.T) {
	w := types.Value{Tag: types.Tag{TS: 1, WID: types.Writer(1)}, Data: "x"}
	y := types.Value{Tag: types.Tag{TS: 7, WID: types.Writer(1)}, Data: "y"}
	f := NewFollower(FollowOptions{})
	b := f.bucket(1)
	b.add("b", history.Op{Client: types.Writer(1), OpID: 5, Kind: types.OpWrite, Invoke: 1, Response: 2, Value: w}, 0)
	b.add("b", history.Op{Client: types.Reader(1), OpID: 1, Kind: types.OpRead, Invoke: 3, Response: 4, Value: types.InitialValue()}, 0)
	if bad := f.wc.check([]*bucket{b}, false, ""); len(bad) != 1 {
		t.Fatalf("stale read after a completed write: %d bad keys, want 1", len(bad))
	}
	b.add("a", history.Op{Client: types.Writer(1), OpID: 5, Kind: types.OpWrite, Invoke: 1, Value: y}, 1<<20)
	if bad := f.wc.check([]*bucket{b}, false, ""); len(bad) != 1 || bad[0].Key != "b" {
		t.Fatalf("a synthesized w1#5 on key a changed key b's verdict: %d bad keys, want 1 (b)", len(bad))
	}
}
