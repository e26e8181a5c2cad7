package audit

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"fastreg/internal/epoch"
	"fastreg/internal/history"
	"fastreg/internal/mwabd"
	"fastreg/internal/proto"
	"fastreg/internal/quorum"
	"fastreg/internal/transport"
	"fastreg/internal/types"
	"fastreg/internal/vclock"
)

// TestWriterRotationMerge: a size-capped writer splits its log into a
// .trlog.N segment family, and MergeFiles given only the base path
// reassembles the whole history across segments.
func TestWriterRotationMerge(t *testing.T) {
	dir := t.TempDir()
	cfg := quorum.Config{S: 3, T: 1, R: 1, W: 1}
	path := filepath.Join(dir, "client.trlog")
	w, err := NewFileWriter(path, ClientHeader("client-1", "W2R2", cfg))
	if err != nil {
		t.Fatal(err)
	}
	w.RotateAt(512)
	const n = 40
	for i := 1; i <= n; i++ {
		v := types.Value{Tag: types.Tag{TS: int64(i), WID: types.Writer(1)}, Data: fmt.Sprintf("v%02d", i)}
		w.Op("k", history.Op{
			Client: types.Writer(1), OpID: uint64(i), Kind: types.OpWrite,
			Invoke: vclock.Time(2*i - 1), Response: vclock.Time(2 * i), Value: v,
		})
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
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

// forgeStaleReplicaLog writes a replica log whose own records convict
// it: an applied update committed tag 5, then a later reply served tag
// 2 — stale by the replica's own committed state.
func forgeStaleReplicaLog(t *testing.T, dir string) string {
	t.Helper()
	cfg := quorum.Config{S: 3, T: 1, R: 1, W: 1}
	path := filepath.Join(dir, "s1.trlog")
	w, err := NewFileWriter(path, ServerHeader(1, "W2R2", cfg))
	if err != nil {
		t.Fatal(err)
	}
	v5 := types.Value{Tag: types.Tag{TS: 5, WID: types.Writer(1)}, Data: "new"}
	v2 := types.Value{Tag: types.Tag{TS: 2, WID: types.Writer(1)}, Data: "old"}
	up := proto.Envelope{From: types.Writer(1), To: types.Server(1), Key: "k", OpID: 1, Round: 1, Payload: proto.Update{Val: &v5}}
	w.Handle(up, proto.UpdateAck{}, 1)
	rd := proto.Envelope{From: types.Reader(1), To: types.Server(1), Key: "k", OpID: 2, Round: 1, Payload: proto.Query{}}
	w.Handle(rd, proto.QueryAck{Val: &v2}, 2)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCrossCheckStaleServe: the offline merge surfaces a served-value
// regression as a binding violation even when no client log exists to
// catch it end to end.
func TestCrossCheckStaleServe(t *testing.T) {
	path := forgeStaleReplicaLog(t, t.TempDir())
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

// TestFollowerCrossCheck: the streaming path surfaces the same
// replica-side finding, via Drain's holdback flush when no epoch ever
// closes.
func TestFollowerCrossCheck(t *testing.T) {
	path := forgeStaleReplicaLog(t, t.TempDir())
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

// epochCluster runs a captured cluster whose client borrows from a live
// weight-throwing coordinator, cutting an epoch after every batch of
// operations. Returns the follower (already drained) and the offline
// report over the same logs.
func mustCut(t *testing.T, co *epoch.Coordinator) {
	t.Helper()
	for i := 0; i < 2000; i++ {
		if co.Cut() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("cutover never accepted — weight leaked?")
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
	coord := epoch.New(nil)
	for _, w := range env.writers {
		coord.Stamp(w.Epoch)
	}
	label := "client-1"
	cpath := filepath.Join(env.dir, label+".trlog")
	cw, err := NewFileWriter(cpath, ClientHeader(label, env.p.Name(), env.cfg))
	if err != nil {
		t.Fatal(err)
	}
	cw.RotateAt(2048)
	coord.Stamp(cw.Epoch)
	env.paths = append(env.paths, cpath)
	c, err := transport.NewClient(env.cfg, env.p, env.addrs, env.net.Dial,
		transport.WithOpCapture(cw.Op), transport.WithEpochCoordinator(coord))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	f := NewFollower(FollowOptions{})
	defer f.Close()
	addLogs := func() {
		for _, p := range env.paths {
			if err := f.AddLog(p); err != nil {
				t.Fatal(err)
			}
		}
	}

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
		mustCut(t, coord)
		// Tail what's on disk so far: flushes lag the appends (client
		// logs buffer), which is exactly what a live follower sees.
		for _, w := range env.writers {
			w.Flush()
		}
		cw.Flush()
		addLogs()
		f.Poll()
	}
	c.Close()
	mustCut(t, coord) // close the last traffic-bearing epoch
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	if f.Finalized() == 0 {
		t.Fatal("no epoch finalized during live polling")
	}

	rep := env.mergeNow(t).Check()
	if !rep.Clean {
		t.Fatalf("offline verdict not clean:\n%s", rep.Summary())
	}

	f.Poll()
	f.Drain()
	for _, w := range f.Warnings {
		if strings.Contains(w, "client record") {
			t.Fatalf("client record straggled: %v", f.Warnings)
		}
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
	coord := epoch.New(nil)
	for _, w := range env.writers {
		coord.Stamp(w.Epoch)
	}
	label := "client-1"
	cpath := filepath.Join(env.dir, label+".trlog")
	cw, err := NewFileWriter(cpath, ClientHeader(label, env.p.Name(), env.cfg))
	if err != nil {
		t.Fatal(err)
	}
	coord.Stamp(cw.Epoch)
	env.paths = append(env.paths, cpath)
	c, err := transport.NewClient(env.cfg, env.p, env.addrs, env.net.Dial,
		transport.WithOpCapture(cw.Op), transport.WithEpochCoordinator(coord))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx := context.Background()
	if _, err := c.Write(ctx, "k", 1, "real"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Read(ctx, "k", 1); err != nil {
		t.Fatal(err)
	}
	mustCut(t, coord)
	// Every replica is poisoned now: this read returns the initial value
	// after "real" was both written and read — non-atomic.
	v, err := c.Read(ctx, "k", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !v.IsInitial() {
		t.Fatalf("post-poison read got %v, fault not triggered", v)
	}
	mustCut(t, coord)
	c.Close()
	mustCut(t, coord)
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}

	rep := env.mergeNow(t).Check()
	if rep.Clean {
		t.Fatalf("offline check missed the stale read:\n%s", rep.Summary())
	}

	f := NewFollower(FollowOptions{})
	defer f.Close()
	for _, p := range env.paths {
		if err := f.AddLog(p); err != nil {
			t.Fatal(err)
		}
	}
	f.Poll()
	f.Drain()
	if f.ViolatedEpochs == 0 {
		t.Fatalf("windowed checker missed the violation the offline check caught (clean=%d, warnings=%v)",
			f.CleanEpochs, f.Warnings)
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
	b := NewEpochOps(1)
	b.Add("b", history.Op{Client: types.Writer(1), OpID: 5, Kind: types.OpWrite, Invoke: 1, Response: 2, Value: w}, 0)
	b.Add("b", history.Op{Client: types.Reader(1), OpID: 1, Kind: types.OpRead, Invoke: 3, Response: 4, Value: types.InitialValue()}, 0)
	if bad := NewWindowChecker().Check([]*EpochOps{b}); len(bad) != 1 {
		t.Fatalf("stale read after a completed write: %d bad keys, want 1", len(bad))
	}
	b.Add("a", history.Op{Client: types.Writer(1), OpID: 5, Kind: types.OpWrite, Invoke: 1, Value: y}, 1<<20)
	if bad := NewWindowChecker().Check([]*EpochOps{b}); len(bad) != 1 || bad[0].Key != "b" {
		t.Fatalf("a synthesized w1#5 on key a changed key b's verdict: %d bad keys, want 1 (b)", len(bad))
	}
}
