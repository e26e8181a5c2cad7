package fastreg

import (
	"context"
	"errors"
	"testing"
	"time"
)

// TestOpenOptionValidation pins the option/backend compatibility matrix:
// misconfigurations fail at Open, not at first use, and every feature
// the transport engine carries works on both backends — so the
// in-process rows below are accepted.
func TestOpenOptionValidation(t *testing.T) {
	cfg := DefaultConfig()
	cases := []struct {
		name   string
		p      Protocol
		opts   []Option
		accept bool
	}{
		{"tcp-addr-count", W2R2, []Option{WithTCP(":7001")}, false}, // 1 address, 5 servers
		// Eviction resets per-key history clocks; combined with capture
		// the trace log's time domain would lie (false binding verdicts).
		{"capture-evict", W2R2, []Option{WithCapture(t.TempDir()), WithEvictionTTL(time.Minute)}, false},
		// The vouched filter reasons about W2R1's reply vectors only.
		{"vouched-w2r2", W2R2, []Option{WithVouchedReads(1)}, false},
		{"slowop-inprocess", W2R2, []Option{WithSlowOpTrace(time.Hour)}, true},
		{"vouched-inprocess", W2R1, []Option{WithVouchedReads(1)}, true},
		{"epochs-inprocess", W2R2, []Option{WithCapture(t.TempDir()), WithAuditEpochs(time.Hour)}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := Open(cfg, tc.p, tc.opts...)
			if !tc.accept {
				if err == nil {
					s.Close()
					t.Fatal("Open must reject the option combination")
				}
				return
			}
			if err != nil {
				t.Fatalf("Open rejected a valid combination: %v", err)
			}
			defer s.Close()
			w, _ := s.Writer(1)
			r, _ := s.Reader(1)
			ctx := context.Background()
			if _, err := w.Put(ctx, "k", "v"); err != nil {
				t.Fatal(err)
			}
			if v, _, ok, err := r.Get(ctx, "k"); err != nil || !ok || v != "v" {
				t.Fatalf("Get = %q ok=%v err=%v", v, ok, err)
			}
		})
	}
	if _, err := Open(cfg, Protocol("nope")); !errors.Is(err, ErrUnknownProtocol) {
		t.Fatalf("unknown protocol: %v", err)
	}
}

// TestHandleIdentity pins the session-handle contract: the same handle is
// returned for the same index, so the per-handle guard covers every
// caller of an identity.
func TestHandleIdentity(t *testing.T) {
	s, err := Open(DefaultConfig(), W2R2)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	w1a, _ := s.Writer(1)
	w1b, _ := s.Writer(1)
	if w1a != w1b {
		t.Fatal("Writer(1) returned distinct handles")
	}
	if w1a.Index() != 1 {
		t.Fatalf("Index() = %d", w1a.Index())
	}
	r2, _ := s.Reader(2)
	if r2.Index() != 2 {
		t.Fatalf("Index() = %d", r2.Index())
	}
}

// TestHandleConcurrentUse pins the misuse guard: an overlapping call on
// one handle fails with ErrHandleInUse instead of corrupting the
// protocol's client state. The overlap is forced deterministically by
// marking the handle busy, exactly the state a concurrent call observes.
func TestHandleConcurrentUse(t *testing.T) {
	s, err := Open(DefaultConfig(), W2R2)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ctx := context.Background()

	w, _ := s.Writer(1)
	w.busy.Store(true)
	if _, err := w.Put(ctx, "k", "v"); !errors.Is(err, ErrHandleInUse) {
		t.Fatalf("overlapping Put = %v, want ErrHandleInUse", err)
	}
	w.busy.Store(false)
	if _, err := w.Put(ctx, "k", "v"); err != nil {
		t.Fatalf("sequential Put after release: %v", err)
	}

	r, _ := s.Reader(1)
	r.busy.Store(true)
	if _, _, _, err := r.Get(ctx, "k"); !errors.Is(err, ErrHandleInUse) {
		t.Fatalf("overlapping Get = %v, want ErrHandleInUse", err)
	}
	r.busy.Store(false)
	if v, _, ok, err := r.Get(ctx, "k"); err != nil || !ok || v != "v" {
		t.Fatalf("sequential Get after release: %q ok=%v err=%v", v, ok, err)
	}
}

// TestClusterCtx pins context handling on a single-register store: a
// cancelled context fails the operation with ErrTimeout, recorded as
// failed, and the history still checks atomic.
func TestClusterCtx(t *testing.T) {
	s, err := Open(DefaultConfig(), W2R2)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	w, _ := s.Writer(1)
	r, _ := s.Reader(1)
	if _, err := w.Put(context.Background(), "", "v1"); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := w.Put(ctx, "", "v2"); !IsTimeout(err) {
		t.Fatalf("Put with cancelled ctx = %v, want ErrTimeout", err)
	}
	if _, _, _, err := r.Get(ctx, ""); !IsTimeout(err) {
		t.Fatalf("Get with cancelled ctx = %v, want ErrTimeout", err)
	}
	v, _, _, err := r.Get(context.Background(), "")
	if err != nil || v != "v1" {
		t.Fatalf("Get = %q err=%v", v, err)
	}
	if res := s.Check(); !res.Atomic {
		t.Fatalf("register history: %s", res.Explanation)
	}
}
