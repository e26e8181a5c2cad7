package audit

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

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
// log each) against it.
type clusterEnv struct {
	t       *testing.T
	dir     string
	cfg     quorum.Config
	p       register.Protocol
	net     *transport.ChanNetwork
	servers []*transport.Server
	writers []*Writer
	addrs   []string
	paths   []string
	nclient int
}

func newClusterEnv(t *testing.T, cfg quorum.Config, p register.Protocol, sopts ...transport.ServerOption) *clusterEnv {
	t.Helper()
	env := &clusterEnv{t: t, dir: t.TempDir(), cfg: cfg, p: p, net: transport.NewChanNetwork()}
	for i := 1; i <= cfg.S; i++ {
		path := filepath.Join(env.dir, fmt.Sprintf("s%d.trlog", i))
		w, err := NewFileWriter(path, ServerHeader(i, p.Name(), cfg))
		if err != nil {
			t.Fatal(err)
		}
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
	env.nclient++
	label := fmt.Sprintf("client-%d", env.nclient)
	path := filepath.Join(env.dir, label+".trlog")
	w, err := NewFileWriter(path, ClientHeader(label, env.p.Name(), env.cfg))
	if err != nil {
		t.Fatal(err)
	}
	c, err := transport.NewClient(env.cfg, env.p, env.addrs, env.net.Dial, transport.WithOpCapture(w.Op))
	if err != nil {
		t.Fatal(err)
	}
	env.paths = append(env.paths, path)
	return c, w
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

// TestCaptureMergeCheckClean is the subsystem's happy path: two client
// processes hammer interleaved keys on one fleet; the merged trace logs
// check clean, with full coverage, and the per-process histories land in
// distinct clock domains.
func TestCaptureMergeCheckClean(t *testing.T) {
	env := newClusterEnv(t, w2r2Shape, mwabd.New())
	c1, w1 := env.client(t)
	c2, w2 := env.client(t)
	defer c1.Close()
	defer c2.Close()

	ctx := context.Background()
	keys := []string{"alpha", "beta", "gamma"}
	var wg sync.WaitGroup
	// Process 1 drives w1/w2 and r1/r2; process 2 drives w3/w4 and r3/r4
	// — the identity partition a real multi-process run must use.
	for proc, c := range []*transport.Client{c1, c2} {
		proc, c := proc, c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				k := keys[i%len(keys)]
				wid := proc*2 + i%2 + 1
				if _, err := c.Write(ctx, k, wid, fmt.Sprintf("p%d-%d", proc, i)); err != nil {
					t.Error(err)
				}
				rid := proc*2 + i%2 + 1
				if _, err := c.Read(ctx, k, rid); err != nil {
					t.Error(err)
				}
			}
		}()
	}
	wg.Wait()
	c1.Close()
	c2.Close()
	if err := w1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}

	m := env.mergeNow(t)
	if len(m.Clients) != 2 || len(m.Replicas) != env.cfg.S {
		t.Fatalf("merge saw %d clients, %d replicas", len(m.Clients), len(m.Replicas))
	}
	if !m.FullCoverage {
		t.Fatalf("full deployment should have full coverage; warnings: %v", m.Warnings)
	}
	if len(m.Keys) != len(keys) {
		t.Fatalf("merged %d keys, want %d", len(m.Keys), len(keys))
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

// TestMergeSynthesizesCrashedClientWrite: a write that only exists in
// replica logs (its client "crashed" before logging — here: its log is
// simply excluded from the merge) is synthesized as an optional write,
// so another process's read of the value checks clean instead of
// reading from nowhere.
func TestMergeSynthesizesCrashedClientWrite(t *testing.T) {
	env := newClusterEnv(t, w2r2Shape, mwabd.New())
	crashed, _ := env.client(t) // its log is never merged
	healthy, hw := env.client(t)
	defer crashed.Close()
	defer healthy.Close()

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
	healthy.Close()
	if err := hw.Close(); err != nil {
		t.Fatal(err)
	}

	// Merge replica logs + the healthy client only.
	paths := append([]string{}, env.paths[:env.cfg.S]...)
	paths = append(paths, filepath.Join(env.dir, "client-2.trlog"))
	m := env.mergeNow(t, paths...)
	if m.Synthesized != 1 {
		t.Fatalf("synthesized %d writes, want 1 (warnings: %v)", m.Synthesized, m.Warnings)
	}
	rep := m.Check()
	if !rep.Clean {
		t.Fatalf("read of crashed client's write flagged:\n%s", rep.Summary())
	}
}

// TestMergePartialReplicaLogs covers the degraded-coverage paths: a
// replica log missing entirely and another truncated mid-record. The
// merge still works (S−t logs suffice to see every committed write) but
// the coverage flag drops and the warning names the gap.
func TestMergePartialReplicaLogs(t *testing.T) {
	env := newClusterEnv(t, w2r2Shape, mwabd.New())
	c, cw := env.client(t)
	defer c.Close()
	ctx := context.Background()
	for i := 0; i < 6; i++ {
		if _, err := c.Write(ctx, "k", 1+i%2, fmt.Sprintf("v%d", i)); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Read(ctx, "k", 1); err != nil {
			t.Fatal(err)
		}
	}
	c.Close()
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}
	for _, w := range env.writers {
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// Drop s1's log entirely and tear s2's mid-record.
	s2 := env.paths[1]
	b, err := os.ReadFile(s2)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s2, b[:len(b)-7], 0o644); err != nil {
		t.Fatal(err)
	}
	paths := append([]string{}, env.paths[1:]...) // skip s1
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

// TestMergeDedupsRetriedRounds builds replica logs with the duplicate
// records an at-least-once transport produces (the same write handled
// twice at one replica) and checks they collapse to one candidate.
func TestMergeDedupsRetriedRounds(t *testing.T) {
	dir := t.TempDir()
	cfg := quorum.Config{S: 3, T: 1, R: 1, W: 1}
	val := types.Value{Tag: types.Tag{TS: 1, WID: types.Writer(1)}, Data: "x"}
	var paths []string
	for i := 1; i <= 2; i++ { // only 2 of 3 replicas logged
		path := filepath.Join(dir, fmt.Sprintf("s%d.trlog", i))
		w, err := NewFileWriter(path, ServerHeader(i, "W2R2", cfg))
		if err != nil {
			t.Fatal(err)
		}
		env := proto.Envelope{From: types.Writer(1), To: types.Server(i), Key: "k", OpID: 1, Round: 2, Payload: proto.Update{Val: &val}}
		w.Handle(env, proto.UpdateAck{}, 1)
		w.Handle(env, proto.UpdateAck{}, 2) // retried round: exact duplicate
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		paths = append(paths, path)
	}
	m, err := MergeFiles(paths...)
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

// TestStaleReadFaultDetected drives the full negative path: a fleet of
// frozen, lying replicas (WithStaleReadFault) serves a reader the
// initial value after the same reader saw a real write — the merged
// trace logs must produce a VIOLATED, binding verdict.
func TestStaleReadFaultDetected(t *testing.T) {
	// Every replica freezes a key after 4 handled requests: one write
	// (2 requests) plus one read (2 requests) pass, the next read lies.
	env := newClusterEnv(t, w2r2Shape, mwabd.New(), transport.WithStaleReadFault(4))
	c, cw := env.client(t)
	defer c.Close()

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
	c.Close()
	if err := cw.Close(); err != nil {
		t.Fatal(err)
	}

	rep := env.mergeNow(t).Check()
	if rep.Clean {
		t.Fatalf("stale read not detected:\n%s", rep.Summary())
	}
	if !rep.Binding {
		t.Fatalf("full-coverage violation should be binding:\n%s", rep.Summary())
	}
}

// TestMergeIdentityCollision: two client logs driving the same writer
// identity merge with a warning, re-homed identities, and a non-binding
// result — and without tag collisions the verdict itself stays clean.
func TestMergeIdentityCollision(t *testing.T) {
	env := newClusterEnv(t, w2r2Shape, mwabd.New())
	c1, w1 := env.client(t)
	c2, w2 := env.client(t)
	defer c1.Close()
	defer c2.Close()
	ctx := context.Background()
	// Both processes use writer 1 — on DIFFERENT keys, so the protocols
	// stay correct but the identity precondition is violated.
	if _, err := c1.Write(ctx, "k1", 1, "a"); err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Write(ctx, "k2", 1, "b"); err != nil {
		t.Fatal(err)
	}
	c1.Close()
	c2.Close()
	if err := w1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w2.Close(); err != nil {
		t.Fatal(err)
	}

	m := env.mergeNow(t)
	if m.FullCoverage {
		t.Fatal("identity collision should drop coverage")
	}
	warned := false
	for _, w := range m.Warnings {
		if strings.Contains(w, "appears in both") {
			warned = true
		}
	}
	if !warned {
		t.Fatalf("no collision warning: %v", m.Warnings)
	}
	if rep := m.Check(); !rep.Clean {
		t.Fatalf("collision on disjoint keys should still check clean:\n%s", rep.Summary())
	}
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
		f, err := ReadTraceFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range f.Records {
			if rec.Kind == proto.TraceServerHandle && rec.Seq == 0 {
				t.Fatalf("%s: replica record without a handled seq", path)
			}
		}
	}
}
