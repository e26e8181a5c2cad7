// Benchmarks regenerating every table and figure of the paper's analysis,
// plus the ablations (BenchmarkAblation*) and the fast read's three hot
// spots (BenchmarkFastRead*). Each benchmark prints or
// reports the same quantities the paper's artifact shows; absolute
// nanoseconds are incidental (the substrate is a simulator) — the reported
// custom metrics (RTTs, verdicts) carry the reproduction.
package fastreg_test

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"fastreg"
	"fastreg/internal/atomicity"
	"fastreg/internal/chains"
	"fastreg/internal/consistency"
	"fastreg/internal/crucialinfo"
	"fastreg/internal/harness"
	"fastreg/internal/history"
	"fastreg/internal/mwabd"
	"fastreg/internal/netsim"
	"fastreg/internal/opkit"
	"fastreg/internal/proto"
	"fastreg/internal/quorum"
	"fastreg/internal/register"
	"fastreg/internal/sweep"
	"fastreg/internal/types"
	"fastreg/internal/vclock"
	"fastreg/internal/workload"
)

// BenchmarkTable1DesignSpace regenerates Table 1: one adversarial workload
// + atomicity check per design-space quadrant. The reported metrics are
// the quadrant's verdict (atomic=1/0) and its round-trip counts.
func BenchmarkTable1DesignSpace(b *testing.B) {
	cfg := quorum.Config{S: 5, T: 1, R: 2, W: 2}
	for _, p := range harness.DesignSpace() {
		p := p
		b.Run(p.Name(), func(b *testing.B) {
			atomic := 1.0
			for i := 0; i < b.N; i++ {
				sim := netsim.MustNew(cfg, p, netsim.WithSeed(int64(i+1)), netsim.WithDelay(netsim.UniformDelay(1, 150)))
				h := workload.Run(sim, workload.Mix{WritesPerWriter: 4, ReadsPerReader: 4})
				if !atomicity.Check(h).Atomic {
					atomic = 0
				}
			}
			// The impossible quadrants may pass random schedules; their
			// verdict comes from the directed probes of the harness (run
			// once, outside timing).
			b.StopTimer()
			rows := map[string]bool{}
			for _, row := range harness.Table1(1) {
				rows[row.Design] = row.Empirical
			}
			if !rows[p.Name()] {
				atomic = 0
			}
			b.ReportMetric(atomic, "atomic")
			b.ReportMetric(float64(p.WriteRounds()), "write-rtts")
			b.ReportMetric(float64(p.ReadRounds()), "read-rtts")
		})
	}
}

// BenchmarkFig2LatencyHasse regenerates Fig 2: per-protocol read/write
// latency in RTTs at a constant one-way delay.
func BenchmarkFig2LatencyHasse(b *testing.B) {
	cfg := quorum.Config{S: 5, T: 1, R: 2, W: 2}
	const oneWay = 50
	for _, p := range harness.DesignSpace() {
		p := p
		b.Run(p.Name(), func(b *testing.B) {
			var wRTT, rRTT float64
			for i := 0; i < b.N; i++ {
				sim := netsim.MustNew(cfg, p, netsim.WithDelay(netsim.ConstDelay(oneWay)))
				h := workload.Run(sim, workload.Mix{WritesPerWriter: 5, ReadsPerReader: 5})
				stats := workload.Measure(h)
				wRTT = stats[types.OpWrite].Mean / (2 * oneWay)
				rRTT = stats[types.OpRead].Mean / (2 * oneWay)
			}
			b.ReportMetric(wRTT, "write-rtts")
			b.ReportMetric(rRTT, "read-rtts")
		})
	}
}

// BenchmarkFig3ChainPhases regenerates the Fig 3 construction end to end:
// chain α, the critical server, chains β′/β″/β and the zigzag links, with
// every execution atomicity-checked.
func BenchmarkFig3ChainPhases(b *testing.B) {
	for _, s := range []int{3, 5, 7} {
		s := s
		b.Run(fmt.Sprintf("S=%d", s), func(b *testing.B) {
			var rep *chains.Report
			for i := 0; i < b.N; i++ {
				var err error
				rep, err = chains.FindViolation(crucialinfo.New(), s)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(rep.Verdicts)), "executions")
			b.ReportMetric(float64(len(rep.Violations)), "violations")
			b.ReportMetric(float64(rep.Alpha.Critical), "critical-server")
			if !rep.LinksHold {
				b.Fatal("indistinguishability links failed")
			}
		})
	}
}

// BenchmarkFig8Sieve regenerates the Fig 8 analysis: Σ1/Σ2 partition and
// the shortened chain α̂ under an adversary flipping crucial info on |Σ1|
// servers.
func BenchmarkFig8Sieve(b *testing.B) {
	for _, nFlip := range []int{0, 1, 2} {
		nFlip := nFlip
		b.Run(fmt.Sprintf("affected=%d", nFlip), func(b *testing.B) {
			var sigma1 []types.ProcID
			for i := 0; i < nFlip; i++ {
				sigma1 = append(sigma1, types.Server(5-i))
			}
			var res *chains.SieveResult
			for i := 0; i < b.N; i++ {
				p := crucialinfo.NewWithFlips(types.Reader(2), sigma1)
				f, err := chains.NewFamily(p, 5)
				if err != nil {
					b.Fatal(err)
				}
				res, err = f.Sieve()
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(res.Sigma1)), "sigma1")
			b.ReportMetric(float64(len(res.Sigma2)), "sigma2")
			b.ReportMetric(float64(res.Critical), "critical-in-sigma2")
		})
	}
}

// BenchmarkFig9Boundary regenerates the Section 5 / Fig 9 feasibility
// boundary: cells around R = S/t − 2 with randomized trials and the
// directed inversion on the impossible side.
func BenchmarkFig9Boundary(b *testing.B) {
	for _, st := range [][2]int{{3, 1}, {5, 1}, {9, 2}} {
		st := st
		b.Run(fmt.Sprintf("S=%d,t=%d", st[0], st[1]), func(b *testing.B) {
			var cells []sweep.Cell
			for i := 0; i < b.N; i++ {
				cells = sweep.Boundary([][2]int{st}, 3)
			}
			match := 1.0
			for _, c := range cells {
				// On the feasible side the random adversary must find
				// nothing; on the infeasible side with S ≤ 3t the directed
				// construction must violate.
				if c.Feasible && !c.RandomAtomic {
					match = 0
				}
				if c.DirectedAttempted && !c.DirectedViolation {
					match = 0
				}
			}
			b.ReportMetric(match, "boundary-matches-paper")
			b.ReportMetric(float64(len(cells)), "cells")
		})
	}
}

// BenchmarkAblationAdmissible compares the exact subset-enumeration
// admissibility test (Algorithm 1 line 32) against the greedy
// approximation.
func BenchmarkAblationAdmissible(b *testing.B) {
	cfg := opkit.AdmissibleConfig{S: 9, T: 2, MaxDegree: 4}
	rng := rand.New(rand.NewSource(1))
	v := types.Value{Tag: types.Tag{TS: 1, WID: types.Writer(1)}, Data: "v"}
	var msgs []proto.FastReadAck
	for i := 0; i < 7; i++ {
		var ups []types.ProcID
		for c := 1; c <= 5; c++ {
			if rng.Intn(2) == 0 {
				ups = append(ups, types.Reader(c))
			}
		}
		msgs = append(msgs, proto.FastReadAck{Vector: []proto.VectorEntry{{Val: v, Updated: ups}}})
	}
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for a := 1; a <= cfg.MaxDegree; a++ {
				opkit.Admissible(v, msgs, a, cfg)
			}
		}
	})
	b.Run("greedy", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for a := 1; a <= cfg.MaxDegree; a++ {
				opkit.AdmissibleGreedy(v, msgs, a, cfg)
			}
		}
	})
}

// steadyFastRead builds the steady state of the one-round read at
// tcp-fastread's shape: five replicas holding six 256-byte values each and a
// reader that has read them, so its next read changes nothing anywhere. It
// returns the replicas, the read and the replies to its request.
func steadyFastRead(b *testing.B) ([]register.ServerLogic, *opkit.FastReadOp, []register.Reply) {
	b.Helper()
	servers := make([]register.ServerLogic, 5)
	for i := range servers {
		servers[i] = opkit.NewVectorServer(types.Server(i + 1))
	}
	for i := 0; i < 5; i++ {
		w := opkit.NewQueryThenUpdateWrite(types.Writer(1+i%2), fmt.Sprintf("%0256d", i), 4)
		if _, _, err := register.CountRounds(w, servers); err != nil {
			b.Fatal(err)
		}
	}
	op := opkit.NewFastReadOp(types.Reader(1), opkit.NewReaderState(), opkit.AdmissibleConfig{S: 5, T: 1, MaxDegree: 3}, 4)
	if _, _, err := register.CountRounds(op, servers); err != nil {
		b.Fatal(err)
	}
	replies := make([]register.Reply, len(servers))
	for i, s := range servers {
		replies[i] = register.Reply{From: s.ID(), Msg: s.Handle(op.Client(), op.Begin().Payload)}
	}
	return servers, op, replies
}

// BenchmarkFastReadServerHandle is a replica answering a steady-state
// FastRead: the reply is its vector, not a copy.
func BenchmarkFastReadServerHandle(b *testing.B) {
	servers, op, _ := steadyFastRead(b)
	req := op.Begin().Payload
	b.ReportAllocs()
	for b.Loop() {
		servers[0].Handle(op.Client(), req)
	}
}

// BenchmarkFastReadReaderNext is the reader's side of the same read: merge
// five six-entry replies into the valQueue and select the admissible value.
func BenchmarkFastReadReaderNext(b *testing.B) {
	_, op, replies := steadyFastRead(b)
	b.ReportAllocs()
	for b.Loop() {
		op.Begin()
		if _, _, done, err := op.Next(replies); err != nil || !done {
			b.Fatal(done, err)
		}
	}
}

// BenchmarkFastReadDecode decodes one of those replies off the wire.
func BenchmarkFastReadDecode(b *testing.B) {
	_, op, replies := steadyFastRead(b)
	frame, err := proto.Encode(proto.Envelope{From: replies[0].From, To: op.Client(), Key: "key-0001", OpID: 1, Round: 1, IsReply: true, Payload: replies[0].Msg})
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(frame)))
	b.ReportAllocs()
	for b.Loop() {
		if _, _, err := proto.Decode(frame); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationWriteBack measures what the read write-back costs (and
// buys): W2R2 vs the non-atomic no-write-back variant.
func BenchmarkAblationWriteBack(b *testing.B) {
	cfg := quorum.Config{S: 5, T: 1, R: 2, W: 2}
	for _, variant := range []struct {
		name string
		p    func() *mwabd.Protocol
	}{
		{"with-write-back", mwabd.New},
		{"no-write-back", mwabd.NewNoWriteBack},
	} {
		variant := variant
		b.Run(variant.name, func(b *testing.B) {
			var readRTT float64
			for i := 0; i < b.N; i++ {
				sim := netsim.MustNew(cfg, variant.p(), netsim.WithDelay(netsim.ConstDelay(50)))
				h := workload.Run(sim, workload.Mix{WritesPerWriter: 4, ReadsPerReader: 4})
				stats := workload.Measure(h)
				readRTT = stats[types.OpRead].Mean / 100
			}
			b.ReportMetric(readRTT, "read-rtts")
		})
	}
}

// BenchmarkAblationScheduler compares the deterministic discrete-event
// simulator against the live in-process fleet on the same workload.
func BenchmarkAblationScheduler(b *testing.B) {
	cfg := fastreg.Config{Servers: 5, MaxCrashes: 1, Readers: 2, Writers: 2}
	b.Run("discrete-event", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sim, err := fastreg.NewSimulation(cfg, fastreg.W2R2, fastreg.SimOptions{Seed: int64(i + 1)})
			if err != nil {
				b.Fatal(err)
			}
			sim.Run(5, 5)
		}
	})
	b.Run("live-goroutines", func(b *testing.B) {
		ctx := context.Background()
		for i := 0; i < b.N; i++ {
			s, err := fastreg.Open(cfg, fastreg.W2R2)
			if err != nil {
				b.Fatal(err)
			}
			w, _ := s.Writer(1)
			r, _ := s.Reader(1)
			for j := 0; j < 5; j++ {
				if _, err := w.Put(ctx, "reg", "v"); err != nil {
					b.Fatal(err)
				}
				if _, _, _, err := r.Get(ctx, "reg"); err != nil {
					b.Fatal(err)
				}
			}
			s.Close()
		}
	})
}

// BenchmarkKVMultiplexed drives the in-process backend — one fleet
// serving every key through key-tagged messages and sharded per-key
// state, the fastreg.Open default — over 64 keys. Reported metrics:
// end-to-end ops/sec and the steady-state goroutine count, O(servers).
func BenchmarkKVMultiplexed(b *testing.B) {
	cfg := fastreg.Config{Servers: 5, MaxCrashes: 1, Readers: 4, Writers: 4}
	s, err := fastreg.Open(cfg, fastreg.W2R2)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	benchKVStore(b, s, cfg, true)
}

// benchKVStore drives a store through the shared client mix (one
// goroutine per writer/reader handle over 64 keys), reporting ops/sec
// and — in-process — the steady-state goroutine count.
func benchKVStore(b *testing.B, s *fastreg.Store, cfg fastreg.Config, reportGoroutines bool) {
	b.Helper()
	const nKeys = 64
	key := func(i int) string { return fmt.Sprintf("key-%03d", i%nKeys) }
	ctx := context.Background()
	seedW, err := s.Writer(1)
	if err != nil {
		b.Fatal(err)
	}
	// Touch every key up front so the goroutine count is the
	// steady-state serving footprint, not mid-instantiation.
	for i := 0; i < nKeys; i++ {
		if _, err := seedW.Put(ctx, key(i), "seed"); err != nil {
			b.Fatal(err)
		}
	}
	goroutines := runtime.NumGoroutine()
	clients := cfg.Writers + cfg.Readers
	b.ReportAllocs() // allocs/op tracks the wire path's pooling (PR 6)
	b.ResetTimer()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		n := b.N / clients
		if c < b.N%clients {
			n++
		}
		if n == 0 {
			continue
		}
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			if c < cfg.Writers {
				w, err := s.Writer(c + 1)
				if err != nil {
					b.Error(err)
					return
				}
				for i := 0; i < n; i++ {
					if _, err := w.Put(ctx, key((c+1)*13+i), "v"); err != nil {
						b.Error(err)
						return
					}
				}
				return
			}
			r, err := s.Reader(c - cfg.Writers + 1)
			if err != nil {
				b.Error(err)
				return
			}
			for i := 0; i < n; i++ {
				if _, _, _, err := r.Get(ctx, key(r.Index()*29+i)); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "ops/sec")
	if reportGoroutines {
		b.ReportMetric(float64(goroutines), "goroutines")
	}
}

// BenchmarkKVTCP puts the KV store's network runtime next to
// BenchmarkKVMultiplexed's in-process numbers: the same cluster shape and
// client mix, but every operation now crosses real loopback TCP sockets —
// encode, kernel, decode, quorum wait — against 5 replica servers, the
// deployment shape cmd/regserver + cmd/regclient run. The gap between the
// two benchmarks is the price of the wire. Concurrent rounds to the same
// server coalesce into multi-envelope frames, and replicas reply in kind;
// the client counts show how that grows with the per-connection overlap.
func BenchmarkKVTCP(b *testing.B) {
	for _, clients := range []int{8, 16} {
		cfg := fastreg.Config{Servers: 5, MaxCrashes: 1, Readers: clients / 2, Writers: clients / 2}
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			qcfg := quorum.Config{S: cfg.Servers, T: cfg.MaxCrashes, R: cfg.Readers, W: cfg.Writers}
			_, addrs := bootTCPFleet(b, qcfg)
			s, err := fastreg.Open(cfg, fastreg.W2R2, fastreg.WithTCP(addrs...))
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			benchKVStore(b, s, cfg, false)
		})
	}
}

// BenchmarkAblationCheckerMemo measures the WGL checker with and without
// state memoization on a concurrent history.
func BenchmarkAblationCheckerMemo(b *testing.B) {
	h := concurrentHistory(16)
	b.Run("memo", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			atomicity.CheckOpt(h, atomicity.Options{})
		}
	})
	b.Run("no-memo", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			atomicity.CheckOpt(h, atomicity.Options{DisableMemo: true})
		}
	})
}

// concurrentHistory builds an atomic history with n overlapping operations
// to exercise the checker's search.
func concurrentHistory(n int) history.History {
	bld := history.NewBuilder()
	v := types.Value{Tag: types.Tag{TS: 1, WID: types.Writer(1)}, Data: "x"}
	bld.Add(types.Writer(1), types.OpWrite, v, 1, 1000)
	for i := 0; i < n; i++ {
		client := types.Reader(i + 1)
		// Reads overlap the write; half return the old value, half the new.
		if i%2 == 0 {
			bld.Add(client, types.OpRead, types.InitialValue(), vclock.Time(2+i), vclock.Time(500+i))
		} else {
			bld.Add(client, types.OpRead, v, vclock.Time(600+i), vclock.Time(900+i))
		}
	}
	return bld.History()
}

// BenchmarkExtW1Rk runs the Section 3 generalization: the impossibility
// argument against W1Rk candidates for k ∈ {2, 3, 4}, merging each read's
// rounds 2…k into one unit.
func BenchmarkExtW1Rk(b *testing.B) {
	for _, k := range []int{2, 3, 4} {
		k := k
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			var rep *chains.Report
			for i := 0; i < b.N; i++ {
				p := crucialinfo.NewKRound(k)
				var err error
				rep, err = chains.FindViolation(p, 5)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(rep.Violations)), "violations")
			if len(rep.Violations) == 0 || !rep.LinksHold {
				b.Fatal("W1Rk argument failed")
			}
		})
	}
}

// BenchmarkExtInconsistency quantifies the Section 7 future-work question:
// how inconsistent do the impossible fast quadrants actually get? Reported
// metrics: worst k-atomicity and stale-read rate over adversarial runs.
func BenchmarkExtInconsistency(b *testing.B) {
	cfg := quorum.Config{S: 5, T: 1, R: 2, W: 2}
	for _, p := range harness.DesignSpace() {
		p := p
		b.Run(p.Name(), func(b *testing.B) {
			worstK, stale, runs := 1.0, 0.0, 0
			for i := 0; i < b.N; i++ {
				for seed := int64(1); seed <= 10; seed++ {
					sim := netsim.MustNew(cfg, p, netsim.WithSeed(seed), netsim.WithDelay(netsim.UniformDelay(1, 200)))
					h := workload.Run(sim, workload.Mix{WritesPerWriter: 5, ReadsPerReader: 5})
					rep := consistency.Analyze(h)
					if float64(rep.KAtomicity) > worstK {
						worstK = float64(rep.KAtomicity)
					}
					stale += rep.StaleRate
					runs++
				}
			}
			b.ReportMetric(worstK, "worst-k-atomicity")
			b.ReportMetric(stale/float64(runs), "stale-rate")
		})
	}
}
