package proto

import (
	"encoding/binary"
	"errors"
	"fmt"
	"runtime"
	"testing"

	"fastreg/internal/types"
)

// sixEntries builds a FastRead and a FastReadAck of six values with 256-byte
// payloads, the shape of a tcp-fastread reply.
func sixEntries() (FastRead, FastReadAck) {
	var q FastRead
	var ack FastReadAck
	for i := 0; i < 6; i++ {
		v := types.Value{Tag: types.Tag{TS: int64(i + 1), WID: types.Writer(1 + i%2)}, Data: fmt.Sprintf("%0256d", i)}
		q.ValQueue = append(q.ValQueue, v)
		ack.Vector = append(ack.Vector, VectorEntry{Val: v, Updated: []types.ProcID{types.Reader(1), types.Reader(2), types.Writer(1 + i%2)}})
	}
	return q, ack
}

// A vector decodes into a fixed number of allocations whatever its length:
// the frame's one block, which holds the text the key and the payloads are
// cut from, the valQueue or the vector and the updated sets, and the
// interface value (one allocation for the text and one per slice before
// the block: 3 for a FastRead, 4 for a FastReadAck). Like every
// allocation lock here, it is taken without the race detector.
func TestDecodeVectorAllocs(t *testing.T) {
	skipUnderRace(t)
	q, ack := sixEntries()
	for _, c := range []struct {
		name string
		msg  Message
		max  float64
	}{
		{"FastRead", q, 2},
		{"FastReadAck", ack, 2},
	} {
		frame, err := Encode(Envelope{From: types.Server(1), To: types.Reader(1), Key: "key-0001", OpID: 1, Round: 1, Payload: c.msg})
		if err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(200, func() {
			if _, _, err := Decode(frame); err != nil {
				t.Fatal(err)
			}
		})
		if got > c.max {
			t.Errorf("Decode of a six-entry %s: %v allocs, want ≤ %v", c.name, got, c.max)
		}
	}
}

// Every updated set is cut from one array, so each is clipped to its
// length: appending to one must not run into the next.
func TestDecodeVectorUpdatedSetsAreClipped(t *testing.T) {
	_, ack := sixEntries()
	frame, err := Encode(Envelope{From: types.Server(1), To: types.Reader(1), Payload: ack})
	if err != nil {
		t.Fatal(err)
	}
	e, _, err := Decode(frame)
	if err != nil {
		t.Fatal(err)
	}
	vec := e.Payload.(FastReadAck).Vector
	_ = append(vec[0].Updated, types.Reader(99))
	if vec[1].Updated[0] != types.Reader(1) {
		t.Errorf("append to one entry's updated set overwrote the next entry's: %v", vec[1])
	}
}

// A count is checked against the bytes that are left before anything of
// that size is allocated. The counts just under MaxFrame/8 are the ones the
// append-as-it-goes decoder accepted until the bytes ran out, and that an
// exactly-sized allocation would turn into megabytes.
func TestDecodeRejectsCountsBeyondTheFrame(t *testing.T) {
	one := types.Value{Tag: types.Tag{TS: 1, WID: types.Writer(1)}, Data: "x"}
	var cases []frameCase
	for _, n := range []uint32{2, 1000, MaxFrame/8 - 1, MaxFrame / 8, MaxFrame/8 + 1, 1<<32 - 1} {
		// A valQueue, a vector and an updated set that each declare n
		// elements and hold one, and a vector that holds none.
		w := writer{buf: frameHeader(KindFastRead)}
		w.u32(n)
		w.value(one)
		cases = append(cases, frameCase{fmt.Sprintf("valQueue count %d, one value", n), finishFrame(w.buf)})

		w = writer{buf: frameHeader(KindFastReadAck)}
		w.u32(n)
		w.value(one)
		w.u32(0)
		cases = append(cases, frameCase{fmt.Sprintf("vector count %d, one entry", n), finishFrame(w.buf)})

		w = writer{buf: frameHeader(KindFastReadAck)}
		w.u32(1)
		w.value(one)
		w.u32(n)
		w.proc(types.Reader(1))
		cases = append(cases, frameCase{fmt.Sprintf("updated count %d, one client", n), finishFrame(w.buf)})

		w = writer{buf: frameHeader(KindFastReadAck)}
		w.u32(n)
		cases = append(cases, frameCase{fmt.Sprintf("vector count %d, nothing after it", n), finishFrame(w.buf)})
	}
	for _, c := range cases {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, used, err := Decode(c.frame)
		runtime.ReadMemStats(&after)
		if err == nil || used != 0 {
			t.Errorf("%s: accepted (%d bytes used)", c.name, used)
		}
		// Under the race detector the codec's pool drops buffers at random,
		// and refilling it is what the byte count would see.
		if got := after.TotalAlloc - before.TotalAlloc; !raceEnabled && got > 4096 {
			t.Errorf("%s: a %d-byte frame made Decode allocate %d bytes", c.name, len(c.frame), got)
		}
	}
}

type frameCase struct {
	name  string
	frame []byte
}

// frameHeader starts a frame of the given kind whose length finishFrame
// fills in.
func frameHeader(kind Kind) []byte {
	w := writer{}
	w.u32(0)
	w.proc(types.Server(1))
	w.proc(types.Reader(1))
	w.str("k")
	w.u64(1)
	w.u8(1)
	w.u8(1)
	w.u64(0)
	w.u64(0)
	w.u8(uint8(kind))
	return w.buf
}

func finishFrame(b []byte) []byte {
	binary.BigEndian.PutUint32(b[:4], uint32(len(b)-4))
	return b
}

// hostileFrames are fast-read frames whose valQueue count, vector count or
// updated-set count claims 2^32−1 elements, followed by one real element
// and a kilobyte of padding: enough bytes that an arena sized from the
// count clamped to the payload would hold dozens of slots.
func hostileFrames() []frameCase {
	const claim = 1<<32 - 1
	one := types.Value{Tag: types.Tag{TS: 1, WID: types.Writer(1)}, Data: "x"}
	pad := make([]byte, 1024)
	w := writer{buf: frameHeader(KindFastRead)}
	w.u32(claim)
	w.value(one)
	queue := finishFrame(append(w.buf, pad...))

	w = writer{buf: frameHeader(KindFastReadAck)}
	w.u32(claim)
	w.value(one)
	w.u32(0)
	vector := finishFrame(append(w.buf, pad...))

	w = writer{buf: frameHeader(KindFastReadAck)}
	w.u32(1)
	w.value(one)
	w.u32(claim)
	w.proc(types.Reader(1))
	updated := finishFrame(append(w.buf, pad...))
	return []frameCase{{"valQueue count", queue}, {"vector count", vector}, {"updated count", updated}}
}

// The arenas cutFrames sizes come from counts in untrusted bytes. A count
// the frame cannot back is ErrTruncated, alone or inside a batch, and the
// decode allocates less than twice the frame's bytes: the count sizes
// nothing.
func TestDecodeHostileCounts(t *testing.T) {
	for _, c := range hostileFrames() {
		batch := binary.BigEndian.AppendUint32(nil, uint32(batchHeader+len(c.frame)))
		batch = append(batch, batchMarker)
		batch = binary.BigEndian.AppendUint32(batch, 1)
		batch = append(batch, c.frame...)
		for _, d := range []struct {
			how    string
			frame  []byte
			decode func([]byte) (int, error)
		}{
			{"Decode", c.frame, func(b []byte) (int, error) { _, n, err := Decode(b); return n, err }},
			{"DecodeBatchInto", batch, func(b []byte) (int, error) { _, n, err := DecodeBatchInto(nil, b); return n, err }},
		} {
			d.decode(d.frame) // builds the frame's block type on first use, which is not the count's doing
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			used, err := d.decode(d.frame)
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrTruncated) || used != 0 {
				t.Errorf("%s of a %s of 2^32-1: %v (%d bytes used), want ErrTruncated", d.how, c.name, err, used)
			}
			// Under the race detector the pool drops buffers at random, and
			// refilling it is what the byte count would see.
			if got := after.TotalAlloc - before.TotalAlloc; !raceEnabled && got >= 2*uint64(len(d.frame)) {
				t.Errorf("%s of a %s of 2^32-1: a %d-byte frame made it allocate %d bytes", d.how, c.name, len(d.frame), got)
			}
		}
	}
}
