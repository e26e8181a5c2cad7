package fastreg_test

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"fastreg"
	"fastreg/internal/audit"
	"fastreg/internal/mwabd"
	"fastreg/internal/proto"
	"fastreg/internal/quorum"
	"fastreg/internal/transport"
)

// TestAuditEpochsLive is the continuous audit end to end at the public
// surface: a real TCP fleet with per-replica capture, a store opened
// WithAuditEpochs cutting weight-throwing epochs under live traffic,
// OnAuditEpoch stamping the replica logs — then both the streaming
// follower and the offline merge verify the run, and agree.
func TestAuditEpochsLive(t *testing.T) {
	cfg := fastreg.DefaultConfig()
	qcfg := quorum.Config{S: cfg.Servers, T: cfg.MaxCrashes, R: cfg.Readers, W: cfg.Writers}
	dir := t.TempDir()
	var writers []*audit.Writer
	var sopts [][]transport.ServerOption
	for i := 1; i <= qcfg.S; i++ {
		w, err := audit.NewFileWriter(
			filepath.Join(dir, fmt.Sprintf("s%d%s", i, audit.TraceExt)),
			audit.ServerHeader(i, "W2R2", qcfg))
		if err != nil {
			t.Fatal(err)
		}
		writers = append(writers, w)
		sopts = append(sopts, []transport.ServerOption{transport.WithServerCapture(w.Handle)})
	}
	servers := make([]*transport.Server, qcfg.S)
	addrs := make([]string, qcfg.S)
	for i := range servers {
		lis, err := transport.ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv, err := transport.NewServer(qcfg, mwabd.New(), i+1, lis, sopts[i]...)
		if err != nil {
			t.Fatal(err)
		}
		servers[i] = srv
		addrs[i] = srv.Addr()
		t.Cleanup(srv.Close)
	}

	s, err := fastreg.Open(cfg, fastreg.W2R2,
		fastreg.WithTCP(addrs...),
		fastreg.WithCapture(dir),
		fastreg.WithCaptureRotation(4096),
		fastreg.WithAuditEpochs(30*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.OnAuditEpoch(func(n uint64) {
		for _, w := range writers {
			w.Epoch(n)
		}
	}); err != nil {
		t.Fatal(err)
	}

	// Drive traffic across several cutovers; ops must never block on one.
	ctx := context.Background()
	wr, err := s.Writer(1)
	if err != nil {
		t.Fatal(err)
	}
	rd, err := s.Reader(1)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(200 * time.Millisecond)
	n := 0
	for time.Now().Before(deadline) {
		k := fmt.Sprintf("k%d", n%4)
		if _, err := wr.Put(ctx, k, fmt.Sprintf("v%d", n)); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := rd.Get(ctx, k); err != nil {
			t.Fatal(err)
		}
		n++
	}
	s.Close() // stops the cutover ticker and stamps the final boundary
	for _, srv := range servers {
		srv.Close()
	}
	for _, w := range writers {
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}

	paths, err := filepath.Glob(filepath.Join(dir, "*"+audit.TraceExt))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(paths)

	f := audit.NewFollower(audit.FollowOptions{})
	defer f.Close()
	for _, p := range paths {
		if err := f.AddLog(p); err != nil {
			t.Fatal(err)
		}
	}
	f.Poll()
	f.Drain()
	if f.ViolatedEpochs != 0 || len(f.PendingStale()) != 0 {
		t.Fatalf("live run flagged: %d violated epochs, %d stale (warnings: %v)",
			f.ViolatedEpochs, len(f.PendingStale()), f.Warnings)
	}
	if f.CleanEpochs < 2 {
		t.Fatalf("only %d epoch(s) closed under 200ms of traffic at 30ms cuts", f.CleanEpochs)
	}

	m, err := audit.MergeFiles(paths...)
	if err != nil {
		t.Fatal(err)
	}
	rep := m.Check()
	if !rep.Clean {
		t.Fatalf("offline verdict over the same logs:\n%s", rep.Summary())
	}
	if f.TotalOps != rep.Operations {
		t.Fatalf("windowed saw %d completed ops, offline saw %d", f.TotalOps, rep.Operations)
	}
}

// TestAuditEpochsValidation pins what WithAuditEpochs and
// WithCaptureRotation require.
func TestAuditEpochsValidation(t *testing.T) {
	cfg := fastreg.DefaultConfig()
	if s, err := fastreg.Open(cfg, fastreg.W2R2,
		fastreg.WithAuditEpochs(time.Second)); err == nil {
		s.Close()
		t.Fatal("WithAuditEpochs without WithCapture must fail")
	}
	if s, err := fastreg.Open(cfg, fastreg.W2R2,
		fastreg.WithCaptureRotation(1024)); err == nil {
		s.Close()
		t.Fatal("WithCaptureRotation without WithCapture must fail")
	}
}

// TestAuditEpochsInProcess is the continuous audit with no fleet to
// host: the in-process store captures its own replica logs, stamps their
// epoch boundaries itself, and the follower finalizes the run CLEAN. The
// replica records carry the real per-key handled counter the served-value
// cross-check orders by.
func TestAuditEpochsInProcess(t *testing.T) {
	dir := t.TempDir()
	s, err := fastreg.Open(fastreg.DefaultConfig(), fastreg.W2R2,
		fastreg.WithCapture(dir), fastreg.WithAuditEpochs(20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	wr, _ := s.Writer(1)
	rd, _ := s.Reader(1)
	for n := 0; n < 40; n++ {
		k := fmt.Sprintf("k%d", n%4)
		if _, err := wr.Put(ctx, k, fmt.Sprintf("v%d", n)); err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := rd.Get(ctx, k); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	s.Close()

	paths, err := filepath.Glob(filepath.Join(dir, "*"+audit.TraceExt))
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != fastreg.DefaultConfig().Servers+1 {
		t.Fatalf("%d logs, want one client and one per replica: %v", len(paths), paths)
	}
	handles := 0
	for _, p := range paths {
		raw, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		for len(raw) > 0 {
			rec, n, err := proto.DecodeTraceRecord(raw)
			if err != nil {
				t.Fatalf("%s: %v", p, err)
			}
			raw = raw[n:]
			if rec.Kind != proto.TraceServerHandle {
				continue
			}
			handles++
			if rec.Seq == 0 {
				t.Fatalf("%s: replica record without a handled seq: %+v", p, rec)
			}
		}
	}
	if handles == 0 {
		t.Fatal("no replica records captured")
	}

	f := audit.NewFollower(audit.FollowOptions{})
	defer f.Close()
	for _, p := range paths {
		if err := f.AddLog(p); err != nil {
			t.Fatal(err)
		}
	}
	f.Poll()
	f.Drain()
	if f.ViolatedEpochs != 0 || len(f.PendingStale()) != 0 {
		t.Fatalf("in-process run flagged: %d violated epochs, %d stale (warnings: %v)",
			f.ViolatedEpochs, len(f.PendingStale()), f.Warnings)
	}
	if f.CleanEpochs < 1 {
		t.Fatal("no epoch closed")
	}
	if f.TotalOps != 80 {
		t.Fatalf("follower saw %d completed ops, want 80", f.TotalOps)
	}
}
