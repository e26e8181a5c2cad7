package fastreg

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"fastreg/internal/mwabd"
	"fastreg/internal/register"
	"fastreg/internal/transport"
	"fastreg/internal/w2r1"
)

// maxAllocsPerOp locks the in-process op path's allocation count: the
// allocations per Put or Get measured below (2.65, against 5.15 while
// every QueryAck and Update boxed its value into a Message, 6.15 while a
// two-round op allocated the Round its Next returns, and 14.15 while
// every pooled slab or buffer returned boxed a new slice header), plus
// one. Recording an op into its key's history allocates only when it
// opens a new chunk of the log (internal/history).
const maxAllocsPerOp = 3.65

// maxTCPAllocsPerOp locks the same loop over loopback TCP: 14.62
// measured, plus one. It was 20.62 while a decoded frame's text and its
// value arena were two allocations (a sequential op's frames hold one
// envelope each, so every value-carrying frame paid both), 23.16 while
// every QueryAck and Update boxed its value, and 84.16 while every decoded
// key was its own string, the codec pools boxed a slice header per return
// and every frame read allocated its 4-byte header.
const maxTCPAllocsPerOp = 15.62

// maxTCPPutAllocsPerOp locks a W2R2 Put of a 32-byte value over loopback
// TCP: 16.11 measured, plus one. It was 22.11 while a decoded frame's text
// and its value arena were two allocations (each of the six TagAck and
// Update frames paid both), 25.12 while every Update decoded its value's
// Data into a string of its own, which a replica adopting the value then
// copied into a Value of its own, and 28.11 while the write's query round
// was a Query, whose three QueryAcks each decoded the replica's value
// into a string the writer dropped.
const maxTCPPutAllocsPerOp = 17.11

// maxTCPGetAllocsPerOp locks a W2R2 Get of a 32-byte value over loopback
// TCP: 13.12 measured, plus one. It was 19.12 while a decoded frame's text
// and its value arena were two allocations (each of the three QueryAck
// and three Update frames paid both), 22.12 while every write-back's
// Update decoded its value's Data into a string of its own, which the
// replica, already holding the value, dropped, and 25.11 while every
// QueryAck did too, of which the read kept at most one.
const maxTCPGetAllocsPerOp = 14.12

// maxFastReadAllocsPerOp locks the W2R1 fast read over loopback TCP:
// 21.17 measured per Get, plus one. It was 36.17 while a decoded frame's
// text and each of its arenas were allocations of their own (text and
// valQueue for each of the five FastReads, text, vector and updated sets
// for each of the five FastReadAcks), and 42.13 while every FastRead,
// FastReadAck vector and updated set decoded into slices of its own, every
// reply and request boxed a new message, and a replica's rebuild gave every
// entry lacking the reader its own new updated set.
const maxFastReadAllocsPerOp = 22.17

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
	addrs := tcpReplicas(t, Config{Servers: 3, MaxCrashes: 1, Writers: 1, Readers: 1}, mwabd.New())
	opPathAllocs(t, maxTCPAllocsPerOp, WithTCP(addrs...))
}

// TestTCPPutAllocs runs sequential W2R2 S=3 Puts of 32-byte values over
// three loopback-TCP replicas and fails if a Put allocates more than
// maxTCPPutAllocsPerOp. opPathAllocs writes "v", whose decoded copies Go
// does not allocate (one-byte strings are static), so only a value of
// some length shows what a write's frames carry: the Update's value, which
// each replica keeps in one allocation of its own (opkit's adopt), and
// since the query round asks for tags (TagQuery), nothing in its replies.
func TestTCPPutAllocs(t *testing.T) {
	pinOneProc(t)
	tcpValueAllocs(t, "Put", maxTCPPutAllocsPerOp, func(ctx context.Context, w *Writer, _ *Reader, key, value string) error {
		_, err := w.Put(ctx, key, value)
		return err
	})
}

// TestTCPGetAllocs is TestTCPPutAllocs for Gets: a read's frames carry
// three QueryAcks and the write-back's Update, whose values are all cut
// from their frames, and a replica that already holds the written-back
// value copies nothing. Every key was written once, so each Get returns
// the value its key's history recorder stored last and copies nothing.
func TestTCPGetAllocs(t *testing.T) {
	pinOneProc(t)
	s, value := tcpValueAllocs(t, "Get", maxTCPGetAllocsPerOp, func(ctx context.Context, _ *Writer, r *Reader, key, value string) error {
		got, _, _, err := r.Get(ctx, key)
		if err == nil && got != value {
			err = fmt.Errorf("Get returned %q, want %q", got, value)
		}
		return err
	})
	// What a Get returns is the payload its key's history stored, here the
	// written one, not the copy cut from a reply frame.
	r, _ := s.Reader(1)
	got, _, _, err := r.Get(context.Background(), "k0")
	if err != nil {
		t.Fatal(err)
	}
	ops := s.Backend().Histories()["k0"].Ops
	if stored := ops[len(ops)-1].Value.Data; unsafe.StringData(got) != unsafe.StringData(stored) || unsafe.StringData(got) != unsafe.StringData(value) {
		t.Error("Get returned a payload other than the one its key's history stored")
	}
}

// TestFastReadOpPathAllocs runs the paper's one-round read over five
// loopback-TCP replicas (W2R1, S=5 t=1 W=2 R=2, 256 B values) and fails if
// a Get allocates more than maxFastReadAllocsPerOp. Every key is written
// four times and read once by each reader first, so the measured Gets
// alternate r1 and r2 over replicas whose vectors no longer change.
func TestFastReadOpPathAllocs(t *testing.T) {
	pinOneProc(t)
	cfg := Config{Servers: 5, MaxCrashes: 1, Writers: 2, Readers: 2}
	s, err := Open(cfg, W2R1, WithTCP(tcpReplicas(t, cfg, w2r1.New())...))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	w1, _ := s.Writer(1)
	w2, _ := s.Writer(2)
	r1, _ := s.Reader(1)
	r2, _ := s.Reader(2)
	writers, readers := []*Writer{w1, w2}, []*Reader{r1, r2}
	ctx := context.Background()
	value := strings.Repeat("v", 256)
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
		for j := range 4 {
			if _, err := writers[j%2].Put(ctx, keys[i], value); err != nil {
				t.Fatal(err)
			}
		}
		for _, r := range readers {
			if _, _, _, err := r.Get(ctx, keys[i]); err != nil {
				t.Fatal(err)
			}
		}
	}
	// 40 runs of 100 Gets resolve 0.01 allocations per Get.
	const gets = 100
	i := 0
	perRun := testing.AllocsPerRun(40, func() {
		for range gets {
			if _, _, _, err := readers[i%2].Get(ctx, keys[i/2%len(keys)]); err != nil {
				t.Fatal(err)
			}
			i++
		}
	})
	perOp := perRun / gets
	t.Logf("%.2f allocs per Get", perOp)
	if perOp > maxFastReadAllocsPerOp {
		t.Fatalf("%.2f allocs per fast-read Get, want ≤ %.2f", perOp, maxFastReadAllocsPerOp)
	}
}

// tcpReplicas starts cfg.Servers loopback-TCP replicas of protocol p,
// closed when the test ends, and returns their addresses.
func tcpReplicas(t *testing.T, cfg Config, p register.Protocol) []string {
	t.Helper()
	addrs := make([]string, cfg.Servers)
	for i := range addrs {
		lis, err := transport.ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv, err := transport.NewServer(cfg.internal(), p, i+1, lis)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		addrs[i] = srv.Addr()
	}
	return addrs
}

// tcpValueAllocs opens a W2R2 S=3 store over three loopback-TCP
// replicas, Puts a 32-byte value to each of 64 keys (every key's first
// touch is set-up), then runs op on the keys in turn and fails if a call
// allocates more than max. It returns the store and the value.
func tcpValueAllocs(t *testing.T, name string, max float64, op func(ctx context.Context, w *Writer, r *Reader, key, value string) error) (*Store, string) {
	cfg := Config{Servers: 3, MaxCrashes: 1, Writers: 1, Readers: 1}
	s, err := Open(cfg, W2R2, WithTCP(tcpReplicas(t, cfg, mwabd.New())...))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	w, _ := s.Writer(1)
	r, _ := s.Reader(1)
	ctx := context.Background()
	value := strings.Repeat("v", 32)
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
		if _, err := w.Put(ctx, keys[i], value); err != nil {
			t.Fatal(err)
		}
	}
	// 40 runs of 100 calls resolve 0.01 allocations per call.
	const calls = 100
	i := 0
	perRun := testing.AllocsPerRun(40, func() {
		for range calls {
			if err := op(ctx, w, r, keys[i%len(keys)], value); err != nil {
				t.Fatal(err)
			}
			i++
		}
	})
	perOp := perRun / calls
	t.Logf("%.2f allocs per %s", perOp, name)
	if perOp > max {
		t.Fatalf("%.2f allocs per %s, want ≤ %.2f", perOp, name, max)
	}
	return s, value
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
