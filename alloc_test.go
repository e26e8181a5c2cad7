package fastreg

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"fastreg/internal/mwabd"
	"fastreg/internal/transport"
)

// maxAllocsPerOp locks the in-process op path's allocation count: the
// allocations per Put or Get measured below (2.65, against 5.15 while
// every QueryAck and Update boxed its value into a Message, 6.15 while a
// two-round op allocated the Round its Next returns, and 14.15 while
// every pooled slab or buffer returned boxed a new slice header), plus
// one. Recording an op into its key's history allocates only when it
// opens a new chunk of the log (internal/history).
const maxAllocsPerOp = 3.65

// maxTCPAllocsPerOp locks the same loop over loopback TCP: 20.65
// measured, plus one. It was 23.16 while every QueryAck and Update boxed
// its value (a sequential op's frames hold one envelope each, so a
// decoded frame's value arena still costs what its box did), and 84.16
// while every decoded key was its own string, the codec pools boxed a
// slice header per return and every frame read allocated its 4-byte
// header.
const maxTCPAllocsPerOp = 21.65

// TestOpPathAllocs runs sequential Put/Get pairs on an in-process W2R2
// S=3 store and fails if an op allocates more than maxAllocsPerOp.
func TestOpPathAllocs(t *testing.T) {
	pinOneProc(t)
	opPathAllocs(t, maxAllocsPerOp)
}

// TestTCPOpPathAllocs is TestOpPathAllocs over three loopback-TCP
// replicas: it counts the codec and the sockets' goroutines too, since
// AllocsPerRun counts every allocation in the process.
func TestTCPOpPathAllocs(t *testing.T) {
	pinOneProc(t)
	addrs := make([]string, 3)
	for i := range addrs {
		lis, err := transport.ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv, err := transport.NewServer(Config{Servers: 3, MaxCrashes: 1, Writers: 1, Readers: 1}.internal(), mwabd.New(), i+1, lis)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		addrs[i] = srv.Addr()
	}
	opPathAllocs(t, maxTCPAllocsPerOp, WithTCP(addrs...))
}

// pinOneProc skips the test under the race detector and runs it at
// GOMAXPROCS 1, as regbench does, so the locked counts are regbench's
// regime.
func pinOneProc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector are inflated and vary: its sync.Pool drops items at random")
	}
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// opPathAllocs runs sequential Put/Get pairs on a W2R2 S=3 store opened
// with opts and fails if an op allocates more than max.
func opPathAllocs(t *testing.T, max float64, opts ...Option) {
	s, err := Open(Config{Servers: 3, MaxCrashes: 1, Writers: 1, Readers: 1}, W2R2, opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	w, _ := s.Writer(1)
	r, _ := s.Reader(1)
	ctx := context.Background()
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
		if _, err := w.Put(ctx, keys[i], "v"); err != nil { // every key's first touch is set-up
			t.Fatal(err)
		}
	}
	// 40 runs of 50 pairs: AllocsPerRun truncates to whole allocations
	// per run, so a run of 100 ops resolves 0.01 per op.
	const pairs = 50
	i := 0
	perRun := testing.AllocsPerRun(40, func() {
		for range pairs {
			k := keys[i%len(keys)]
			i++
			if _, err := w.Put(ctx, k, "v"); err != nil {
				t.Fatal(err)
			}
			if _, _, _, err := r.Get(ctx, k); err != nil {
				t.Fatal(err)
			}
		}
	})
	perOp := perRun / (2 * pairs)
	t.Logf("%.2f allocs per op", perOp)
	if perOp > max {
		t.Fatalf("%.2f allocs per Put/Get, want ≤ %.2f", perOp, max)
	}
}
