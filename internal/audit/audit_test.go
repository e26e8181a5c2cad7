package audit

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"fastreg/internal/epoch"
	"fastreg/internal/mwabd"
	"fastreg/internal/netsim"
	"fastreg/internal/proto"
	"fastreg/internal/quorum"
	"fastreg/internal/register"
	"fastreg/internal/transport"
	"fastreg/internal/types"
)

// clusterEnv is a captured multi-process-shaped deployment: S replicas
// over the in-process transport, each with its own trace log, plus
// helpers to run client "processes" (one transport.Client + one client
// log each) against it. One epoch coordinator stamps every log, so each
// captured run can be checked offline and followed.
type clusterEnv struct {
	t        *testing.T
	dir      string
	cfg      quorum.Config
	p        register.Protocol
	net      *transport.ChanNetwork
	coord    *epoch.Coordinator
	closed   atomic.Uint64 // highest epoch whose boundary is in every log
	servers  []*transport.Server
	writers  []*Writer
	clients  []*transport.Client
	cwriters []*Writer
	addrs    []string
	paths    []string
}

func newClusterEnv(t *testing.T, cfg quorum.Config, p register.Protocol, sopts ...transport.ServerOption) *clusterEnv {
	t.Helper()
	env := &clusterEnv{t: t, dir: t.TempDir(), cfg: cfg, p: p, net: transport.NewChanNetwork(), coord: epoch.New(nil)}
	env.coord.OnClose(func(n uint64) { env.closed.Store(n) })
	for i := 1; i <= cfg.S; i++ {
		path := filepath.Join(env.dir, fmt.Sprintf("s%d.trlog", i))
		w, err := NewFileWriter(path, ServerHeader(i, p.Name(), cfg))
		if err != nil {
			t.Fatal(err)
		}
		env.coord.Stamp(w.Epoch)
		addr := fmt.Sprintf("srv-%d", i)
		lis, err := env.net.Listen(addr)
		if err != nil {
			t.Fatal(err)
		}
		opts := append([]transport.ServerOption{transport.WithServerCapture(w.Handle)}, sopts...)
		srv, err := transport.NewServer(cfg, p, i, lis, opts...)
		if err != nil {
			t.Fatal(err)
		}
		env.servers = append(env.servers, srv)
		env.writers = append(env.writers, w)
		env.addrs = append(env.addrs, addr)
		env.paths = append(env.paths, path)
	}
	t.Cleanup(env.close)
	return env
}

func (env *clusterEnv) close() {
	for _, s := range env.servers {
		s.Close()
	}
	for _, w := range env.writers {
		w.Close()
	}
}

// client starts one captured client "process" and returns it with its
// log path registered for the merge.
func (env *clusterEnv) client(t *testing.T) (*transport.Client, *Writer) {
	t.Helper()
	label := fmt.Sprintf("client-%d", len(env.clients)+1)
	path := filepath.Join(env.dir, label+".trlog")
	w, err := NewFileWriter(path, ClientHeader(label, env.p.Name(), env.cfg))
	if err != nil {
		t.Fatal(err)
	}
	env.coord.Stamp(w.Epoch)
	c, err := transport.NewClient(env.cfg, env.p, env.addrs, env.net.Dial,
		transport.WithOpCapture(w.Op), transport.WithEpochCoordinator(env.coord))
	if err != nil {
		t.Fatal(err)
	}
	env.clients = append(env.clients, c)
	env.cwriters = append(env.cwriters, w)
	env.paths = append(env.paths, path)
	return c, w
}

// finish ends the run as a clean shutdown does: the clients close, the
// coordinator cuts so the last epoch's boundary lands in every log, and
// every log is closed.
func (env *clusterEnv) finish(t *testing.T) {
	t.Helper()
	for _, c := range env.clients {
		c.Close()
	}
	env.cut(t)
	for _, w := range append(env.cwriters, env.writers...) {
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// cut closes the open epoch and waits until its boundary is stamped in
// every log: a cutover is only accepted once the previous one finished,
// and it finishes when the epoch's last weight comes home, which can be
// after the op that carried it has returned to its caller.
func (env *clusterEnv) cut(t *testing.T) {
	t.Helper()
	n, cutting := env.coord.Epoch(), false
	for i := 0; i < 2000; i++ {
		if env.closed.Load() >= n {
			return
		}
		if !cutting {
			cutting = env.coord.Cut()
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("epoch %d never closed — weight leaked?", n)
}

// mergeNow closes all logs and merges them (the servers stay up).
func (env *clusterEnv) mergeNow(t *testing.T, paths ...string) *Merge {
	t.Helper()
	for _, w := range env.writers {
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if paths == nil {
		paths = env.paths
	}
	m, err := MergeFiles(paths...)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

var w2r2Shape = quorum.Config{S: 3, T: 1, R: 4, W: 4}

// runClean drives the happy path: two client processes hammer
// interleaved keys on one fleet with partitioned identities — process 1
// drives w1/w2 and r1/r2, process 2 w3/w4 and r3/r4 — 48 ops in all.
func runClean(t *testing.T) *clusterEnv {
	env := newClusterEnv(t, w2r2Shape, mwabd.New())
	c1, _ := env.client(t)
	c2, _ := env.client(t)
	ctx := context.Background()
	keys := []string{"alpha", "beta", "gamma"}
	var wg sync.WaitGroup
	for proc, c := range []*transport.Client{c1, c2} {
		proc, c := proc, c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				k := keys[i%len(keys)]
				id := proc*2 + i%2 + 1
				if _, err := c.Write(ctx, k, id, fmt.Sprintf("p%d-%d", proc, i)); err != nil {
					t.Error(err)
				}
				if _, err := c.Read(ctx, k, id); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	env.finish(t)
	return env
}

// TestCaptureMergeCheckClean is the subsystem's happy path: the merged
// trace logs of runClean check clean, with full coverage, and the
// per-process histories land in distinct clock domains.
func TestCaptureMergeCheckClean(t *testing.T) {
	env := runClean(t)
	m := env.mergeNow(t)
	if len(m.Clients) != 2 || len(m.Replicas) != env.cfg.S {
		t.Fatalf("merge saw %d clients, %d replicas", len(m.Clients), len(m.Replicas))
	}
	if !m.FullCoverage {
		t.Fatalf("full deployment should have full coverage; warnings: %v", m.Warnings)
	}
	if len(m.Keys) != 3 {
		t.Fatalf("merged %d keys, want 3", len(m.Keys))
	}
	// Ops from the two processes must sit in different domains.
	kh := m.Keys["alpha"]
	doms := map[int]bool{}
	for _, op := range kh.Ops {
		doms[kh.DomainOf(op)] = true
	}
	if len(doms) != 2 {
		t.Fatalf("alpha ops span %d domains, want 2", len(doms))
	}

	rep := m.Check()
	if !rep.Clean {
		t.Fatalf("clean run flagged:\n%s", rep.Summary())
	}
	if rep.Operations != 48 {
		t.Fatalf("checked %d ops, want 48", rep.Operations)
	}
}

// runCrashedClient writes a value from a client whose log is then left
// out (it "crashed" before logging), and reads it from another; it
// returns the replica logs plus the healthy client's.
func runCrashedClient(t *testing.T) []string {
	env := newClusterEnv(t, w2r2Shape, mwabd.New())
	crashed, _ := env.client(t)
	healthy, _ := env.client(t)
	ctx := context.Background()
	if _, err := crashed.Write(ctx, "k", 1, "doomed"); err != nil {
		t.Fatal(err)
	}
	v, err := healthy.Read(ctx, "k", 3)
	if err != nil {
		t.Fatal(err)
	}
	if v.Data != "doomed" {
		t.Fatalf("read %q", v.Data)
	}
	env.finish(t)
	return append(env.paths[:env.cfg.S:env.cfg.S], filepath.Join(env.dir, "client-2.trlog"))
}

// TestMergeSynthesizesCrashedClientWrite: a write that only exists in
// replica logs is synthesized as an optional write, so another process's
// read of the value checks clean instead of reading from nowhere.
func TestMergeSynthesizesCrashedClientWrite(t *testing.T) {
	m, err := MergeFiles(runCrashedClient(t)...)
	if err != nil {
		t.Fatal(err)
	}
	if m.Synthesized != 1 {
		t.Fatalf("synthesized %d writes, want 1 (warnings: %v)", m.Synthesized, m.Warnings)
	}
	rep := m.Check()
	if !rep.Clean {
		t.Fatalf("read of crashed client's write flagged:\n%s", rep.Summary())
	}
}

// runPartial drives one client, then drops s1's log entirely and tears
// s2's mid-record; it returns the surviving logs and s2's path.
func runPartial(t *testing.T) (paths []string, torn string) {
	env := newClusterEnv(t, w2r2Shape, mwabd.New())
	c, _ := env.client(t)
	ctx := context.Background()
	for i := 0; i < 6; i++ {
		if _, err := c.Write(ctx, "k", 1+i%2, fmt.Sprintf("v%d", i)); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Read(ctx, "k", 1); err != nil {
			t.Fatal(err)
		}
	}
	env.finish(t)
	torn = env.paths[1]
	b, err := os.ReadFile(torn)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(torn, b[:len(b)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	return env.paths[1:], torn
}

// TestMergePartialReplicaLogs covers the degraded-coverage paths: a
// replica log missing entirely and another truncated mid-record. The
// merge still works (S−t logs suffice to see every committed write) but
// the coverage flag drops and the warning names the gap.
func TestMergePartialReplicaLogs(t *testing.T) {
	paths, s2 := runPartial(t)
	m, err := MergeFiles(paths...)
	if err != nil {
		t.Fatal(err)
	}
	if m.FullCoverage {
		t.Fatal("partial logs reported full coverage")
	}
	found := false
	for _, f := range m.Files {
		if f.Path == s2 && f.Truncated {
			found = true
		}
	}
	if !found {
		t.Fatalf("torn log not marked truncated; warnings: %v", m.Warnings)
	}
	rep := m.Check()
	if !rep.Clean {
		t.Fatalf("clean run flagged under partial logs:\n%s", rep.Summary())
	}
}

// TestMergeRefusesNonLogs: a file that never shows a header record —
// empty, garbage, or a torn header — fails the merge instead of joining
// it.
func TestMergeRefusesNonLogs(t *testing.T) {
	dir := t.TempDir()
	good := handLog(t, filepath.Join(dir, "s1.trlog"), ServerHeader(1, "W2R2", w2r2Shape), func(*Writer) {})
	hdr, err := proto.EncodeTraceRecord(ServerHeader(2, "W2R2", w2r2Shape))
	if err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string][]byte{"empty": nil, "garbage": []byte("not a capture log at all"), "torn": hdr[:len(hdr)-3]} {
		bad := filepath.Join(dir, name+".trlog")
		if err := os.WriteFile(bad, body, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, paths := range [][]string{{bad}, {good, bad}} {
			if _, err := MergeFiles(paths...); err == nil {
				t.Fatalf("%s: %v merged without error", name, paths)
			}
		}
	}
}

// dedupLogs builds replica logs with the duplicate records an
// at-least-once transport produces: the same epoch-1 write handled twice
// at each of 2 of 3 replicas.
func dedupLogs(t *testing.T) []string {
	dir := t.TempDir()
	cfg := quorum.Config{S: 3, T: 1, R: 1, W: 1}
	val := types.Value{Tag: types.Tag{TS: 1, WID: types.Writer(1)}, Data: "x"}
	var paths []string
	for i := 1; i <= 2; i++ { // only 2 of 3 replicas logged
		paths = append(paths, handLog(t, filepath.Join(dir, fmt.Sprintf("s%d.trlog", i)), ServerHeader(i, "W2R2", cfg), func(w *Writer) {
			env := proto.Envelope{From: types.Writer(1), To: types.Server(i), Key: "k", OpID: 1, Round: 2, Epoch: 1, Payload: proto.Update{Val: &val}}
			w.Handle(env, proto.UpdateAck{}, 1)
			w.Handle(env, proto.UpdateAck{}, 2) // retried round: exact duplicate
			w.Epoch(1)
		}))
	}
	return paths
}

// TestMergeDedupsRetriedRounds: dedupLogs' duplicates collapse to one
// candidate.
func TestMergeDedupsRetriedRounds(t *testing.T) {
	m, err := MergeFiles(dedupLogs(t)...)
	if err != nil {
		t.Fatal(err)
	}
	if m.DuplicateHandles != 2 {
		t.Fatalf("dropped %d duplicates, want 2", m.DuplicateHandles)
	}
	if m.Synthesized != 1 {
		t.Fatalf("synthesized %d, want exactly 1 despite retries and two replicas", m.Synthesized)
	}
	if rep := m.Check(); !rep.Clean {
		t.Fatalf("lone optional write flagged:\n%s", rep.Summary())
	}
}

// runStaleFault drives the full negative path: a fleet of frozen, lying
// replicas (WithStaleReadFault) serves a reader the initial value after
// the same reader saw a real write. Every replica freezes a key after 4
// handled requests: one write (2 requests) plus one read (2 requests)
// pass, the next read lies.
func runStaleFault(t *testing.T) *clusterEnv {
	env := newClusterEnv(t, w2r2Shape, mwabd.New(), transport.WithStaleReadFault(4))
	c, _ := env.client(t)
	ctx := context.Background()
	if _, err := c.Write(ctx, "k", 1, "real"); err != nil {
		t.Fatal(err)
	}
	v, err := c.Read(ctx, "k", 1)
	if err != nil {
		t.Fatal(err)
	}
	if v.Data != "real" {
		t.Fatalf("pre-poison read got %q", v.Data)
	}
	v, err = c.Read(ctx, "k", 1)
	if err != nil {
		t.Fatal(err)
	}
	if !v.IsInitial() {
		t.Fatalf("post-poison read got %v, fault not triggered", v)
	}
	env.finish(t)
	return env
}

// TestStaleReadFaultDetected: the merged trace logs of runStaleFault must
// produce a VIOLATED, binding verdict.
func TestStaleReadFaultDetected(t *testing.T) {
	rep := runStaleFault(t).mergeNow(t).Check()
	if rep.Clean {
		t.Fatalf("stale read not detected:\n%s", rep.Summary())
	}
	if !rep.Binding {
		t.Fatalf("full-coverage violation should be binding:\n%s", rep.Summary())
	}
}

// runCollision has two client processes both drive writer 1 — on
// DIFFERENT keys, so the protocols stay correct but the identity
// precondition is violated. With stale set, the fleet also lies to the
// first process's second read of k1, as in runStaleFault.
func runCollision(t *testing.T, stale bool) *clusterEnv {
	var sopts []transport.ServerOption
	if stale {
		sopts = append(sopts, transport.WithStaleReadFault(4))
	}
	env := newClusterEnv(t, w2r2Shape, mwabd.New(), sopts...)
	c1, _ := env.client(t)
	c2, _ := env.client(t)
	ctx := context.Background()
	if _, err := c1.Write(ctx, "k1", 1, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Write(ctx, "k2", 1, "b"); err != nil {
		t.Fatal(err)
	}
	for i := 0; stale && i < 2; i++ {
		if _, err := c1.Read(ctx, "k1", 1); err != nil {
			t.Fatal(err)
		}
	}
	env.finish(t)
	return env
}

// TestMergeIdentityCollision: two client logs driving the same writer
// identity merge with a warning, re-homed identities, and a non-binding
// result — and without tag collisions the verdict itself stays clean.
func TestMergeIdentityCollision(t *testing.T) {
	m := runCollision(t, false).mergeNow(t)
	if m.FullCoverage {
		t.Fatal("identity collision should drop coverage")
	}
	if !hasWarning(m.Warnings, "appears in both") {
		t.Fatalf("no collision warning: %v", m.Warnings)
	}
	if op := m.Keys["k2"].Ops[0]; op.Client.Index <= w2r2Shape.W {
		t.Fatalf("the second log's w1 was not re-homed: %v", op)
	}
	if rep := m.Check(); !rep.Clean {
		t.Fatalf("collision on disjoint keys should still check clean:\n%s", rep.Summary())
	}
}

func hasWarning(warnings []string, sub string) bool {
	for _, w := range warnings {
		if strings.Contains(w, sub) {
			return true
		}
	}
	return false
}

// TestMultiLiveCapture: the in-process fleet's capture hooks — the
// transport's own, passed through — produce logs the merge consumes:
// full coverage, clean verdict, replica records ordered by handled seq.
func TestMultiLiveCapture(t *testing.T) {
	dir := t.TempDir()
	cfg := w2r2Shape
	p := mwabd.New()
	var paths []string
	var sw []*Writer
	cw, err := NewFileWriter(filepath.Join(dir, "client.trlog"), ClientHeader("client-1", p.Name(), cfg))
	if err != nil {
		t.Fatal(err)
	}
	paths = append(paths, filepath.Join(dir, "client.trlog"))
	for i := 1; i <= cfg.S; i++ {
		path := filepath.Join(dir, fmt.Sprintf("s%d.trlog", i))
		w, err := NewFileWriter(path, ServerHeader(i, p.Name(), cfg))
		if err != nil {
			t.Fatal(err)
		}
		sw = append(sw, w)
		paths = append(paths, path)
	}
	ml, err := netsim.NewMultiLive(cfg, p,
		netsim.WithMultiClient(transport.WithOpCapture(cw.Op)),
		netsim.WithMultiServers(func(i int) []transport.ServerOption {
			return []transport.ServerOption{transport.WithServerCapture(sw[i-1].Handle)}
		}))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for i := 0; i < 8; i++ {
		k := fmt.Sprintf("k%d", i%2)
		if _, err := ml.Write(ctx, k, 1+i%cfg.W, fmt.Sprintf("v%d", i)); err != nil {
			t.Fatal(err)
		}
		if _, err := ml.Read(ctx, k, 1+i%cfg.R); err != nil {
			t.Fatal(err)
		}
	}
	ml.Close()
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	for _, w := range sw {
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
	m, err := MergeFiles(paths...)
	if err != nil {
		t.Fatal(err)
	}
	if !m.FullCoverage {
		t.Fatalf("in-process capture should be fully covered: %v", m.Warnings)
	}
	if rep := m.Check(); !rep.Clean {
		t.Fatalf("MultiLive capture flagged:\n%s", rep.Summary())
	}
	for _, path := range paths[1:] {
		for _, rec := range readRecords(t, path) {
			if rec.Kind == proto.TraceServerHandle && rec.Seq == 0 {
				t.Fatalf("%s: replica record without a handled seq", path)
			}
		}
	}
}

// readRecords decodes every frame of one capture log segment.
func readRecords(t *testing.T, path string) []proto.TraceRecord {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var recs []proto.TraceRecord
	for len(b) > 0 {
		rec, n, err := proto.DecodeTraceRecord(b)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		recs, b = append(recs, rec), b[n:]
	}
	return recs
}
