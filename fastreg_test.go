package fastreg

import (
	"context"
	"strings"
	"sync"
	"testing"
)

func TestProtocolsResolve(t *testing.T) {
	for _, p := range Protocols() {
		impl, err := p.impl()
		if err != nil {
			t.Errorf("%s: %v", p, err)
			continue
		}
		if impl.WriteRounds() < 1 || impl.ReadRounds() < 1 {
			t.Errorf("%s: bad round counts", p)
		}
	}
	if _, err := Protocol("nope").impl(); err == nil {
		t.Error("unknown protocol resolved")
	}
}

func TestConfigImplementableTable1(t *testing.T) {
	cfg := DefaultConfig()
	want := map[Protocol]bool{
		W2R2: true, W2R1: true, W1R2: false, W1R1: false, ABD: false, FullInfo: false,
	}
	for p, expect := range want {
		got, err := cfg.Implementable(p)
		if err != nil {
			t.Fatal(err)
		}
		if got != expect {
			t.Errorf("Implementable(%s) = %v, want %v", p, got, expect)
		}
	}
	if _, err := cfg.Implementable(Protocol("x")); err == nil {
		t.Error("unknown protocol accepted")
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Config{Servers: -1}).Validate(); err == nil {
		t.Error("bad config validated")
	}
}

func TestVersionOrderAndString(t *testing.T) {
	a := Version{TS: 1, Writer: 1}
	b := Version{TS: 1, Writer: 2}
	c := Version{TS: 2, Writer: 1}
	if !a.Less(b) || !b.Less(c) || c.Less(a) {
		t.Error("version order wrong")
	}
	if a.String() != "(1,w1)" {
		t.Errorf("String = %q", a.String())
	}
}

// The TestCluster* cases drive a store through one key: the paper's
// Fig 1 cluster of a single register.

// openStore opens an in-process store closed at test cleanup.
func openStore(t *testing.T, cfg Config, p Protocol) *Store {
	t.Helper()
	s, err := Open(cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func TestClusterReadYourWrites(t *testing.T) {
	s := openStore(t, DefaultConfig(), W2R2)
	ctx := context.Background()
	w, _ := s.Writer(1)
	r, _ := s.Reader(1)
	ver, err := w.Put(ctx, "", "hello")
	if err != nil {
		t.Fatal(err)
	}
	if ver.TS < 1 || ver.Writer != 1 {
		t.Fatalf("version = %v", ver)
	}
	val, rver, _, err := r.Get(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	if val != "hello" || rver != ver {
		t.Fatalf("read %q %v", val, rver)
	}
	res := s.Check()
	if !res.Atomic || res.Operations != 2 {
		t.Fatalf("check = %+v", res)
	}
}

func TestClusterRangeValidation(t *testing.T) {
	s := openStore(t, DefaultConfig(), W2R1)
	if _, err := s.Writer(0); err == nil {
		t.Error("writer 0 accepted")
	}
	if _, err := s.Reader(3); err == nil {
		t.Error("reader 3 accepted")
	}
}

func TestClusterConcurrentAtomic(t *testing.T) {
	for _, p := range []Protocol{W2R2, W2R1} {
		p := p
		t.Run(string(p), func(t *testing.T) {
			s := openStore(t, Config{Servers: 7, MaxCrashes: 1, Readers: 2, Writers: 2}, p)
			ctx := context.Background()
			var wg sync.WaitGroup
			for i := 1; i <= 2; i++ {
				w, _ := s.Writer(i)
				r, _ := s.Reader(i)
				wg.Add(2)
				go func() {
					defer wg.Done()
					for j := 0; j < 10; j++ {
						if _, err := w.Put(ctx, "", "v"); err != nil {
							t.Errorf("write: %v", err)
							return
						}
					}
				}()
				go func() {
					defer wg.Done()
					for j := 0; j < 10; j++ {
						if _, _, _, err := r.Get(ctx, ""); err != nil {
							t.Errorf("read: %v", err)
							return
						}
					}
				}()
			}
			wg.Wait()
			res := s.Check()
			if !res.Atomic {
				t.Fatalf("not atomic: %s", res.Explanation)
			}
			if res.Operations != 40 {
				t.Fatalf("operations = %d", res.Operations)
			}
		})
	}
}

func TestClusterCrashTolerance(t *testing.T) {
	s := openStore(t, DefaultConfig(), W2R2)
	ctx := context.Background()
	w, _ := s.Writer(1)
	r, _ := s.Reader(2)
	if _, err := w.Put(ctx, "", "before"); err != nil {
		t.Fatal(err)
	}
	s.CrashServer(3)
	val, _, _, err := r.Get(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	if val != "before" {
		t.Fatalf("read %q", val)
	}
}

func TestSimulationLatencyShape(t *testing.T) {
	// W2R1 vs W2R2 at the same constant delay: fast read is half the slow
	// read; writes are equal.
	run := func(p Protocol) WorkloadResult {
		sim, err := NewSimulation(DefaultConfig(), p, SimOptions{MinDelay: 50, MaxDelay: 50})
		if err != nil {
			t.Fatal(err)
		}
		return sim.Run(5, 5)
	}
	slow := run(W2R2)
	fast := run(W2R1)
	if !slow.Check.Atomic || !fast.Check.Atomic {
		t.Fatal("baseline runs not atomic")
	}
	if fast.ReadLatency.Mean*1.8 > slow.ReadLatency.Mean {
		t.Errorf("fast read %.1f not ≈ half of slow read %.1f", fast.ReadLatency.Mean, slow.ReadLatency.Mean)
	}
	if fast.WriteLatency.Mean < slow.WriteLatency.Mean*0.9 || fast.WriteLatency.Mean > slow.WriteLatency.Mean*1.1 {
		t.Errorf("write latencies should match: %.1f vs %.1f", fast.WriteLatency.Mean, slow.WriteLatency.Mean)
	}
}

func TestSimulationDeterministic(t *testing.T) {
	run := func() string {
		sim, err := NewSimulation(DefaultConfig(), W2R2, SimOptions{Seed: 7, MinDelay: 1, MaxDelay: 90})
		if err != nil {
			t.Fatal(err)
		}
		sim.Run(3, 3)
		return sim.Transcript()
	}
	if run() != run() {
		t.Fatal("same seed gave different transcripts")
	}
}

func TestSimulationCrashAndSkips(t *testing.T) {
	sim, err := NewSimulation(DefaultConfig(), W2R1, SimOptions{
		Seed: 3, MinDelay: 1, MaxDelay: 60,
		ReaderSkips: map[int]int{1: 2, 2: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	sim.CrashServerAt(5, 500)
	res := sim.Run(4, 4)
	if !res.Check.Atomic {
		t.Fatalf("adversarial feasible run not atomic: %s", res.Check.Explanation)
	}
	if res.Pending != 0 {
		t.Fatalf("pending = %d", res.Pending)
	}
}

func TestSimulationRejectsUnknownProtocol(t *testing.T) {
	if _, err := NewSimulation(DefaultConfig(), Protocol("zzz"), SimOptions{}); err == nil {
		t.Fatal("unknown protocol accepted")
	}
}

func TestAnalysisFeasibility(t *testing.T) {
	if !FastReadFeasible(5, 1, 2) {
		t.Error("(5,1,2) should be feasible")
	}
	if FastReadFeasible(5, 1, 3) {
		t.Error("(5,1,3) should be infeasible")
	}
	if MaxFastReaders(5, 1) != 2 {
		t.Errorf("MaxFastReaders(5,1) = %d", MaxFastReaders(5, 1))
	}
	if MaxFastReaders(5, 0) != -1 {
		t.Error("t=0 should be unbounded")
	}
}

func TestProveFastWriteImpossible(t *testing.T) {
	rep, err := ProveFastWriteImpossible(5)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Violations == 0 {
		t.Fatal("no violation found")
	}
	if !rep.LinksHold {
		t.Error("indistinguishability links failed")
	}
	if rep.CriticalServer == 0 {
		t.Error("critical server not found for the full-info candidate")
	}
	if rep.FirstViolation == "" || !strings.Contains(rep.Summary, "W1R2") {
		t.Errorf("report incomplete: %+v", rep)
	}
	// The naive W1R2 protocol dies too.
	rep2, err := ProveFastWriteImpossibleFor(W1R2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if rep2.Violations == 0 {
		t.Fatal("naive candidate survived")
	}
	// A two-round-write protocol is rejected by the argument.
	if _, err := ProveFastWriteImpossibleFor(W2R2, 5); err == nil {
		t.Fatal("W2R2 accepted by the fast-write argument")
	}
}

func TestFastReadBoundaryTable(t *testing.T) {
	table := FastReadBoundary([][2]int{{3, 1}})
	if !strings.Contains(table, "Fig 9") || !strings.Contains(table, "S=3") || !strings.Contains(table, "explored:VIOLATION") {
		t.Errorf("table:\n%s", table)
	}
}
