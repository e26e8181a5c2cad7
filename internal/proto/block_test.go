package proto

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"fastreg/internal/types"
)

// Every count rounds up to the smallest power of two that holds it, and
// every object size to the smallest quarter step of a power of two; the
// largest classes hold 128 values, 32 vector entries and 16 KiB.
func TestBlockClasses(t *testing.T) {
	for n := 0; n <= 300; n++ {
		c := countClass(n)
		if classCount(c) < n || (c > 0 && classCount(c-1) >= n) {
			t.Fatalf("countClass(%d) = %d, which holds %d slots", n, c, classCount(c))
		}
	}
	for n := 1; n <= 1<<15; n++ {
		c := sizeClass(n)
		if classSize(c) < n || (c > 0 && classSize(c-1) >= n) {
			t.Fatalf("sizeClass(%d) = %d, which holds %d bytes", n, c, classSize(c))
		}
	}
	for c := 4; c < sizeClasses; c++ {
		if classSize(c) != 2*classSize(c-4) {
			t.Fatalf("class %d holds %d bytes, class %d %d: not a quarter step", c, classSize(c), c-4, classSize(c-4))
		}
	}
	if got := [3]int{classCount(valClasses - 1), classCount(vecClasses - 1), classSize(sizeClasses - 1)}; got != [3]int{128, 32, 16 << 10} {
		t.Errorf("largest classes hold %d values, %d entries and %d bytes, want 128, 32 and 16384", got[0], got[1], got[2])
	}
}

// The counts that size a frame's block come from untrusted bytes, so the
// block types decoding builds are keyed by class, never by shape: frames
// of thousands of distinct declared shapes build exactly one type per
// class they fall in (powers of two of values and of entries, whether
// the frame holds a FastRead, a quarter step of the object's bytes), at
// most len(blocks), and each fills no more than its class. The bound is
// 9 value classes (none, 1 to 128) × 7 entry classes (none, 1 to 32) ×
// 41 size classes (16 B to 16 KiB in quarter steps) = 2583 types
// without FastRead headers, and as many again with them.
func TestBlockTypesBounded(t *testing.T) {
	const bound = 2 * 9 * 7 * 41
	if len(blocks) != bound {
		t.Fatalf("%d block slots, want %d", len(blocks), bound)
	}
	for i := range blocks {
		blocks[i].Store(nil)
	}
	shapes := map[[5]int]bool{}
	classes := map[[4]int]bool{}
	decodeShape := func(envs []Envelope) {
		t.Helper()
		frame, err := EncodeBatch(envs)
		if err != nil {
			t.Fatal(err)
		}
		out, _, err := DecodeBatch(frame)
		if err != nil {
			t.Fatal(err)
		}
		var s [5]int // values, entries, updated-set members, text bytes, FastReads
		for _, e := range out {
			s[3] += len(e.Key)
			switch m := e.Payload.(type) {
			case TagAck, QueryAck, Update:
				s[0]++
			case *FastRead:
				s[0] += len(m.ValQueue)
				s[4]++
			case FastReadAck:
				s[1] += len(m.Vector)
				for _, ent := range m.Vector {
					s[2] += len(ent.Updated)
				}
			}
			if cutsPayload(e.Payload.Kind()) {
				b, err := Encode(e)
				if err != nil {
					t.Fatal(err)
				}
				s[3] += len(b) - 4 - minEnvelope - len(e.Key)
			}
		}
		shapes[s] = true
		if c, ok := wantClass(s); ok {
			classes[c] = true
		}
	}

	val := func(ts, n int) types.Value {
		return types.Value{Tag: types.Tag{TS: int64(ts), WID: types.Writer(1)}, Data: strings.Repeat("v", n)}
	}
	procs := []types.ProcID{types.Reader(1), types.Reader(2), types.Writer(1), types.Writer(2), types.Server(1), types.Server(2)}
	ack := func(entries, ups, size int) Envelope {
		vec := make([]VectorEntry, entries)
		for i := range vec {
			vec[i] = VectorEntry{Val: val(i+1, size), Updated: procs[:ups]}
		}
		return Envelope{From: types.Server(1), To: types.Reader(1), Key: "k", IsReply: true, Round: 1, Payload: FastReadAck{Vector: vec}}
	}
	for entries := 1; entries <= 40; entries += 3 {
		for ups := 0; ups <= len(procs); ups++ {
			for _, size := range []int{0, 9, 40, 200, 700} {
				decodeShape([]Envelope{ack(entries, ups, size)})
			}
		}
	}
	for n := 1; n <= 140; n++ {
		for _, size := range []int{1, 30, 120} {
			queue := make([]types.Value, n)
			for i := range queue {
				queue[i] = val(i+1, size)
			}
			decodeShape([]Envelope{{From: types.Reader(1), To: types.Server(1), Key: strings.Repeat("q", n%5), Round: 1, Payload: &FastRead{ValQueue: queue}}})
		}
	}
	for n := 1; n <= 40; n++ {
		for _, size := range []int{1, 30, 120} {
			var reads []Envelope
			for i := range n {
				queue := make([]types.Value, 1+i%3)
				for j := range queue {
					queue[j] = val(j+1, size)
				}
				reads = append(reads, Envelope{From: types.Reader(1 + i), To: types.Server(1), Key: fmt.Sprintf("r%d", i), Round: 1, Payload: &FastRead{ValQueue: queue}})
			}
			decodeShape(reads)
		}
	}
	for n := 1; n <= 150; n++ {
		tags, vals := make([]Envelope, n), make([]Envelope, n)
		for i := range tags {
			v := val(i+1, n%40)
			tags[i] = Envelope{From: types.Server(1), To: types.Writer(1), Key: fmt.Sprintf("k%d", i), IsReply: true, Round: 1, Payload: TagAck{Tag: &v.Tag}}
			vals[i] = Envelope{From: types.Server(1), To: types.Writer(1), Key: fmt.Sprintf("k%d", i), IsReply: true, Round: 1, Payload: QueryAck{Val: &v}}
		}
		decodeShape(tags)
		decodeShape(vals)
	}
	for n := 1; n <= 30; n++ {
		for entries := 1; entries <= 30; entries++ {
			v := val(n, 8)
			envs := []Envelope{ack(entries, n%len(procs), 16)}
			for range n {
				envs = append(envs, Envelope{From: types.Server(1), To: types.Writer(1), Key: "t", IsReply: true, Round: 1, Payload: TagAck{Tag: &v.Tag}})
			}
			decodeShape(envs)
		}
	}
	if len(shapes) < 2000 {
		t.Fatalf("only %d distinct shapes decoded", len(shapes))
	}
	built := 0
	for i := range blocks {
		blk := blocks[i].Load()
		if blk == nil {
			continue
		}
		built++
		size := int(blk.typ.Size())
		if c := i % sizeClasses; size+header(size) > classSize(c) {
			t.Errorf("a block of class %d bytes takes %d bytes", classSize(c), size+header(size))
		}
	}
	t.Logf("%d shapes, %d classes, %d block types", len(shapes), len(classes), built)
	if built != len(classes) || built > bound {
		t.Errorf("%d shapes in %d classes built %d block types, want one per class (at most %d)", len(shapes), len(classes), built, bound)
	}
}

// wantClass is the class of a frame's block: the values and the vector
// entries rounded up to powers of two, whether it holds FastReads and
// values (then one 24-byte header per value slot), and the object's
// bytes (the arenas, a tail of updated-set members and text, and the
// allocator's header) to the next quarter step of a power of two. ok is
// false for a frame with no arena or one past the largest class, which
// gets no block.
func wantClass(s [5]int) (c [4]int, ok bool) {
	if s[0] == 0 && s[1] == 0 {
		return c, false
	}
	pow2 := func(n int) int {
		p := 0
		if n > 0 {
			p = 1
		}
		for p < n {
			p *= 2
		}
		return p
	}
	vals, vec := pow2(s[0]), pow2(s[1])
	if vals > 128 || vec > 32 {
		return c, false
	}
	reads := 0
	if s[4] > 0 && vals > 0 {
		reads = 1
	}
	size := vals*40 + vec*64 + reads*vals*24 + s[2]*16 + s[3]
	if size > 512 {
		size += 8
	}
	for p := 16; p <= 16<<10; p *= 2 {
		for q := 4; q < 8; q++ {
			if step := p * q / 4; step >= size && step <= 16<<10 {
				return [4]int{reads, vals, vec, step}, true
			}
		}
	}
	return c, false
}

// A frame's arenas are carved from its block with their caps clipped, so
// an append to a decoded valQueue, vector or updated set copies it out and
// never writes into a neighbouring envelope's slots.
func TestBlockAppendAliasing(t *testing.T) {
	val := func(i int) types.Value {
		return types.Value{Tag: types.Tag{TS: int64(i), WID: types.Writer(1 + i%2)}, Data: fmt.Sprintf("value-%02d", i)}
	}
	tag, got := val(7), val(8)
	envs := []Envelope{
		{From: types.Reader(1), To: types.Server(1), Key: "a", Round: 1, Payload: &FastRead{ValQueue: []types.Value{val(1), val(2)}}},
		{From: types.Reader(2), To: types.Server(1), Key: "b", Round: 1, Payload: &FastRead{ValQueue: []types.Value{val(3)}}},
		{From: types.Server(1), To: types.Reader(1), Key: "a", IsReply: true, Round: 1, Payload: FastReadAck{Vector: []VectorEntry{
			{Val: val(4), Updated: []types.ProcID{types.Reader(1), types.Writer(1)}},
			{Val: val(5), Updated: []types.ProcID{types.Reader(2)}},
		}, Floor: val(4).Tag}},
		{From: types.Server(1), To: types.Reader(2), Key: "b", IsReply: true, Round: 1, Payload: FastReadAck{Vector: []VectorEntry{
			{Val: val(6), Updated: []types.ProcID{types.Writer(2)}},
		}}},
		{From: types.Server(1), To: types.Writer(1), Key: "c", IsReply: true, Round: 1, Payload: TagAck{Tag: &tag.Tag}},
		{From: types.Server(1), To: types.Writer(2), Key: "d", IsReply: true, Round: 1, Payload: QueryAck{Val: &got}},
	}
	frame, err := EncodeBatch(envs)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := DecodeBatch(frame)
	if err != nil {
		t.Fatal(err)
	}
	extra := val(99)
	for _, e := range out {
		switch m := e.Payload.(type) {
		case *FastRead:
			_ = append(m.ValQueue, extra)
		case FastReadAck:
			_ = append(m.Vector, VectorEntry{Val: extra, Updated: []types.ProcID{types.Server(9)}})
			for _, ent := range m.Vector {
				_ = append(ent.Updated, types.Server(9))
			}
		}
	}
	for i := range envs {
		if !reflect.DeepEqual(out[i], envs[i]) {
			t.Errorf("envelope %d after appends to the others: %v, want %v", i, out[i], envs[i])
		}
	}
}
