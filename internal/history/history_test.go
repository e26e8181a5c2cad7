package history

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"fastreg/internal/types"
	"fastreg/internal/vclock"
)

func wv(ts int64, w int, data string) types.Value {
	return types.Value{Tag: types.Tag{TS: ts, WID: types.Writer(w)}, Data: data}
}

func TestRecorderBasics(t *testing.T) {
	clock := &vclock.Clock{}
	rec := NewRecorder(clock)
	k1 := rec.Invoke(types.Writer(1), 1, types.OpWrite, wv(1, 1, "a"))
	k2 := rec.Invoke(types.Reader(1), 1, types.OpRead, types.Value{})
	rec.Respond(k1, wv(1, 1, "a"), nil)
	rec.Respond(k2, wv(1, 1, "a"), nil)
	h := rec.History()
	if len(h.Ops) != 2 {
		t.Fatalf("ops = %d", len(h.Ops))
	}
	if len(h.Completed()) != 2 || len(h.Pending()) != 0 || len(h.Failed()) != 0 {
		t.Fatal("completion classification wrong")
	}
	for _, o := range h.Ops {
		if !o.Done() || o.Invoke >= o.Response {
			t.Errorf("bad times: %v", o)
		}
	}
}

func TestRecorderErrorAndPending(t *testing.T) {
	clock := &vclock.Clock{}
	rec := NewRecorder(clock)
	k1 := rec.Invoke(types.Writer(1), 1, types.OpWrite, wv(1, 1, "a"))
	rec.Invoke(types.Reader(1), 1, types.OpRead, types.Value{})
	rec.Respond(k1, types.Value{}, errors.New("quorum unreachable"))
	h := rec.History()
	if len(h.Failed()) != 1 {
		t.Errorf("failed = %d", len(h.Failed()))
	}
	if len(h.Pending()) != 1 {
		t.Errorf("pending = %d", len(h.Pending()))
	}
	if len(h.Completed()) != 0 {
		t.Errorf("completed = %d", len(h.Completed()))
	}
}

// TestRecorderRefPastEndPanics pins the Ref contract's failure mode: a
// Ref addressing past the end of the log — here one issued by a longer
// recorder — panics on every method that takes one.
func TestRecorderRefPastEndPanics(t *testing.T) {
	long := NewRecorder(&vclock.Clock{})
	var refs []Ref
	for i := range 6 {
		refs = append(refs, long.Invoke(types.Writer(1), uint64(i+1), types.OpWrite, wv(int64(i+1), 1, "a")))
	}
	uses := map[string]func(*Recorder, Ref){
		"Respond":       func(r *Recorder, ref Ref) { r.Respond(ref, types.Value{}, nil) },
		"RespondAt":     func(r *Recorder, ref Ref) { r.RespondAt(100, ref, types.Value{}, nil) },
		"RespondFailed": func(r *Recorder, ref Ref) { r.RespondFailed(ref, types.OpWrite, types.Value{}, errors.New("x")) },
		"SetEpoch":      func(r *Recorder, ref Ref) { r.SetEpoch(ref, 3) },
		"UpdateValue":   func(r *Recorder, ref Ref) { r.UpdateValue(ref, types.Value{}) },
	}
	for name, use := range uses {
		// refs[1] is past the end of the first chunk's fill, refs[5] past
		// the last chunk.
		for _, ref := range []Ref{refs[1], refs[5]} {
			short := NewRecorder(&vclock.Clock{})
			short.Invoke(types.Reader(1), 1, types.OpRead, types.Value{})
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s with ref %v past the end of the log must panic", name, ref)
					}
				}()
				use(short, ref)
			}()
		}
	}
}

// TestRecorderRefsAcrossChunks invokes ops over more than three chunk
// boundaries, responds to them out of order through their Refs, and
// checks every response landed on its own op and History keeps
// invocation order.
func TestRecorderRefsAcrossChunks(t *testing.T) {
	const n = 50 // chunks of 4, 7, 14, 21, 21: four boundaries
	rec := NewRecorder(&vclock.Clock{})
	refs := make([]Ref, n)
	for i := range refs {
		refs[i] = rec.Invoke(types.Reader(1+i%3), uint64(i+1), types.OpRead, types.Value{})
	}
	for _, i := range rand.New(rand.NewSource(1)).Perm(n) {
		rec.SetEpoch(refs[i], uint64(i+1))
		rec.Respond(refs[i], wv(int64(i+1), 1, "v"), nil)
	}
	h := rec.History()
	if len(h.Ops) != n {
		t.Fatalf("ops = %d, want %d", len(h.Ops), n)
	}
	for i, o := range h.Ops {
		if o.OpID != uint64(i+1) {
			t.Fatalf("op %d is %s: History lost invocation order", i, o.Key())
		}
		if i > 0 && o.Invoke <= h.Ops[i-1].Invoke {
			t.Errorf("op %d invoked at %d, not after %d", i, o.Invoke, h.Ops[i-1].Invoke)
		}
		if !o.Done() || o.Value.Tag.TS != int64(i+1) || o.Epoch != uint64(i+1) {
			t.Errorf("op %d = %v epoch %d: response landed on the wrong op", i, o, o.Epoch)
		}
	}
}

// TestRecorderConcurrentSink drives Invoke/SetEpoch/Respond from several
// goroutines with a sink installed (run it under -race): the sink sees
// every response once and each client's ops stay in its own order.
func TestRecorderConcurrentSink(t *testing.T) {
	const clients, perClient = 8, 200
	rec := NewRecorder(&vclock.Clock{})
	seen := make(map[ID]int) // written by the sink, under the recorder's lock
	rec.SetSink(func(o Op) { seen[o.ID()]++ })
	var wg sync.WaitGroup
	for c := 1; c <= clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 1; i <= perClient; i++ {
				ref := rec.Invoke(types.Writer(c), uint64(i), types.OpWrite, wv(int64(i), c, "v"))
				rec.SetEpoch(ref, 1)
				rec.Respond(ref, types.Value{}, nil)
			}
		}()
	}
	wg.Wait()
	if len(seen) != clients*perClient {
		t.Fatalf("sink saw %d ops, want %d", len(seen), clients*perClient)
	}
	for id, n := range seen {
		if n != 1 {
			t.Errorf("sink saw %s %d times", id, n)
		}
	}
	h := rec.History()
	if err := h.WellFormed(); err != nil {
		t.Fatal(err)
	}
	last := make(map[types.ProcID]uint64)
	for _, o := range h.Ops {
		if o.OpID != last[o.Client]+1 {
			t.Fatalf("%s follows %s#%d: per-client order lost", o.Key(), o.Client, last[o.Client])
		}
		last[o.Client] = o.OpID
	}
}

// TestRecorderOwnsReadPayload: a read's payload may be cut from a larger
// string (a reply frame's text, proto.Decode), so the recorder stores a
// copy of its own, Respond returns that copy and the sink sees it; a later
// read equal to it gets back that payload, not its own. A write's payload
// is the caller's and is stored as it is.
func TestRecorderOwnsReadPayload(t *testing.T) {
	rec := NewRecorder(&vclock.Clock{})
	var sunk []string
	rec.SetSink(func(op Op) { sunk = append(sunk, op.Value.Data) })
	same := func(a, b string) bool { return unsafe.StringData(a) == unsafe.StringData(b) }

	// Invoked before its tag is known, so the response is a new value.
	written := strings.Repeat("w", 32)
	ref := rec.Invoke(types.Writer(1), 1, types.OpWrite, types.Value{Data: written})
	if got := rec.Respond(ref, wv(1, 1, written), nil); !same(got, written) {
		t.Error("a write's payload was copied")
	}

	frame := strings.Repeat("a", 64) + strings.Repeat("v", 32) + strings.Repeat("b", 64)
	read := wv(2, 2, frame[64:96])
	ref = rec.Invoke(types.Reader(1), 1, types.OpRead, types.Value{})
	owned := rec.Respond(ref, read, nil)
	if owned != read.Data {
		t.Fatalf("Respond returned %q, want %q", owned, read.Data)
	}
	if same(owned, read.Data) {
		t.Error("a read's payload cut from a frame was stored without a copy")
	}

	again := wv(2, 2, (strings.Repeat("c", 8) + read.Data)[8:])
	ref = rec.Invoke(types.Reader(2), 1, types.OpRead, types.Value{})
	if got := rec.Respond(ref, again, nil); !same(got, owned) {
		t.Error("a read equal to the last value stored did not get back its payload")
	}

	h := rec.History()
	for i, want := range []string{written, owned, owned} {
		if !same(h.Ops[i].Value.Data, want) || !same(sunk[i], want) {
			t.Errorf("op %d: history or sink holds a payload other than the one Respond returned", i)
		}
	}
}

// TestRecorderAllocs locks the op path's cost: only opening a chunk
// allocates, so a recorder's whole life, from NewRecorder through 1 000
// recorded ops, stays under 0.1 allocations per op. Each write responds
// with its value, as transport.Client does, so the value path is paid.
func TestRecorderAllocs(t *testing.T) {
	const ops = 1000
	got := testing.AllocsPerRun(20, func() {
		rec := NewRecorder(&vclock.Clock{})
		for i := range ops {
			v := wv(int64(i+1), 1, "v")
			ref := rec.Invoke(types.Writer(1), uint64(i+1), types.OpWrite, v)
			rec.SetEpoch(ref, 1)
			rec.Respond(ref, v, nil)
		}
	}) / ops
	if got > 0.1 {
		t.Fatalf("%.3f allocs per recorded op, want ≤ 0.1", got)
	}
}

// TestRecorderBytesPerOp locks what a recorded op keeps on the heap: a
// 72-byte record in a chunk that wastes at most 16 bytes of its size
// class, and no payload of its own for a read. It records 1<<14 ops of a
// 70/30 read/write mix on one register, every read answering with its
// own copy of the last written 16-byte payload (as each reader decodes
// its own), and measures the live heap the recorder holds: after a GC,
// with it and then without it. The written payloads are cut from one
// string the test keeps, so what is measured is the recorder's own.
func TestRecorderBytesPerOp(t *testing.T) {
	if size := unsafe.Sizeof(record{}); size != 72 {
		t.Fatalf("a record is %d bytes, want 72", size)
	}
	const ops, size = 1 << 14, 16
	var pool strings.Builder
	for i := range ops {
		fmt.Fprintf(&pool, "v%0*d", size-1, i)
	}
	payloads := pool.String()
	rng := rand.New(rand.NewSource(1))
	rec := NewRecorder(&vclock.Clock{})
	last := types.Value{}
	for i := range ops {
		if rng.Intn(10) < 3 {
			v := wv(int64(i+1), 1, payloads[i*size:(i+1)*size])
			ref := rec.Invoke(types.Writer(1), uint64(i+1), types.OpWrite, v)
			rec.Respond(ref, v, nil)
			last = v
			continue
		}
		ref := rec.Invoke(types.Reader(1+i%8), uint64(i+1), types.OpRead, types.Value{})
		rec.Respond(ref, types.Value{Tag: last.Tag, Data: strings.Clone(last.Data)}, nil)
	}
	var with, without runtime.MemStats
	runtime.GC()
	runtime.GC() // the second frees what sync.Pools still held
	runtime.ReadMemStats(&with)
	runtime.KeepAlive(rec)
	runtime.GC()
	runtime.ReadMemStats(&without)
	runtime.KeepAlive(payloads)
	got := float64(int64(with.HeapAlloc)-int64(without.HeapAlloc)) / ops
	t.Logf("%.1f B per recorded op", got)
	if got > 80 {
		t.Fatalf("%.1f B retained per recorded op, want ≤ 80", got)
	}
}

// BenchmarkRecorder measures one recorded op (Invoke+SetEpoch+Respond),
// responding with the written value as transport.Client does. It starts
// a fresh recorder every 1 000 ops, so chunk allocation is amortised as
// in TestRecorderAllocs and memory stays bounded however large b.N
// grows.
func BenchmarkRecorder(b *testing.B) {
	b.ReportAllocs()
	var rec *Recorder
	i := 0
	for b.Loop() {
		if i%1000 == 0 {
			rec = NewRecorder(&vclock.Clock{})
		}
		i++
		v := wv(int64(i), 1, "v")
		ref := rec.Invoke(types.Writer(1), uint64(i), types.OpWrite, v)
		rec.SetEpoch(ref, 1)
		rec.Respond(ref, v, nil)
	}
}

func TestPrecedesAndConcurrent(t *testing.T) {
	a := Op{Invoke: 1, Response: 5}
	b := Op{Invoke: 6, Response: 8}
	c := Op{Invoke: 4, Response: 7}
	if !a.Precedes(b) {
		t.Error("a must precede b")
	}
	if b.Precedes(a) {
		t.Error("b must not precede a")
	}
	if !a.Concurrent(c) || !c.Concurrent(a) {
		t.Error("a and c overlap")
	}
	pending := Op{Invoke: 1}
	if pending.Precedes(b) {
		t.Error("pending op precedes nothing")
	}
}

func TestWellFormed(t *testing.T) {
	ok := NewBuilder().
		Add(types.Reader(1), types.OpRead, types.Value{}, 1, 3).
		Add(types.Reader(1), types.OpRead, types.Value{}, 4, 6).
		Add(types.Reader(2), types.OpRead, types.Value{}, 2, 5).
		History()
	if err := ok.WellFormed(); err != nil {
		t.Errorf("well-formed history rejected: %v", err)
	}
	bad := NewBuilder().
		Add(types.Reader(1), types.OpRead, types.Value{}, 1, 5).
		Add(types.Reader(1), types.OpRead, types.Value{}, 3, 8).
		History()
	if err := bad.WellFormed(); err == nil {
		t.Error("overlapping ops of one client accepted")
	}
}

func TestReadsWritesSplit(t *testing.T) {
	h := NewBuilder().
		Seq(types.Writer(1), types.OpWrite, wv(1, 1, "a")).
		Seq(types.Reader(1), types.OpRead, wv(1, 1, "a")).
		Seq(types.Writer(2), types.OpWrite, wv(2, 2, "b")).
		History()
	if len(h.Writes()) != 2 || len(h.Reads()) != 1 {
		t.Errorf("writes=%d reads=%d", len(h.Writes()), len(h.Reads()))
	}
}

func TestBuilderSeqIsSequential(t *testing.T) {
	h := NewBuilder().
		Seq(types.Writer(1), types.OpWrite, wv(1, 1, "a")).
		Seq(types.Writer(2), types.OpWrite, wv(1, 2, "b")).
		History()
	if !h.Ops[0].Precedes(h.Ops[1]) {
		t.Error("Seq ops must be non-concurrent in order")
	}
}

func TestOpStringAndHistoryString(t *testing.T) {
	h := NewBuilder().
		Seq(types.Writer(1), types.OpWrite, wv(1, 1, "a")).
		AddPending(types.Reader(1), types.OpRead, types.Value{}, 9).
		History()
	s := h.String()
	if !strings.Contains(s, "w1#1") || !strings.Contains(s, "…") {
		t.Errorf("history string = %q", s)
	}
}

func TestInvokeAtRespondAt(t *testing.T) {
	clock := &vclock.Clock{}
	rec := NewRecorder(clock)
	k := rec.InvokeAt(100, types.Reader(1), 1, types.OpRead, types.Value{})
	rec.RespondAt(200, k, wv(1, 1, "x"), nil)
	h := rec.History()
	o := h.Ops[0]
	if o.Invoke != 100 || o.Response != 200 {
		t.Errorf("times = [%d,%d]", o.Invoke, o.Response)
	}
	if clock.Now() < 200 {
		t.Error("explicit times must advance the clock")
	}
}
