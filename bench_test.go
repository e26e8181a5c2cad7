// Performance benchmarks of the library: the fast read's three hot spots
// (BenchmarkFastRead*), the KV store in process and over loopback TCP
// (BenchmarkKV*), and the ablations that time a design choice
// (BenchmarkAblation*). The paper's results are not benchmarks: cmd/repro
// regenerates them into EXPERIMENTS.md. regbench (bench/) measures the
// deployed fleet.
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
	"fastreg/internal/history"
	"fastreg/internal/opkit"
	"fastreg/internal/proto"
	"fastreg/internal/quorum"
	"fastreg/internal/register"
	"fastreg/internal/types"
	"fastreg/internal/vclock"
)

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
// returns the replicas, the read and the replies to its request. The
// replicas serve R=2 readers and the second one never reads, so the
// dead-value floor stays at (0,⊥) and all six values stay live: the
// benchmarks measure a six-entry vector, whatever pruning would leave.
func steadyFastRead(b *testing.B) ([]register.ServerLogic, *opkit.FastReadOp, []register.Reply) {
	b.Helper()
	servers := make([]register.ServerLogic, 5)
	for i := range servers {
		servers[i] = opkit.NewVectorServer(types.Server(i+1), 2)
	}
	for i := 0; i < 5; i++ {
		w := opkit.NewQueryThenUpdateWrite(types.Writer(1+i%2), fmt.Sprintf("%0256d", i), 4, new(int64))
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
// deployment shape cmd/regserver + cmd/regstorm -cluster run. The gap between the
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
