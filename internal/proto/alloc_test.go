package proto

import (
	"fmt"
	"testing"

	"fastreg/internal/types"
)

// skipUnderRace skips allocation locks that go through the pools: under
// the race detector sync.Pool drops items at random.
func skipUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops items at random")
	}
}

// A Get/Put cycle through either pool allocates nothing once the pool
// holds a slice: the header a Put needs is the one the last Get parked.
func TestPoolCycleAllocs(t *testing.T) {
	skipUnderRace(t)
	PutBuf(make([]byte, 0, 64))
	PutEnvs(make([]Envelope, 0, 4))
	for _, c := range []struct {
		name  string
		cycle func()
	}{
		{"GetBuf/PutBuf", func() { PutBuf(append(GetBuf(), 1, 2, 3)) }},
		{"GetEnvs/PutEnvs", func() { PutEnvs(append(GetEnvs(), Envelope{OpID: 1})) }},
	} {
		if got := testing.AllocsPerRun(1000, c.cycle); got != 0 {
			t.Errorf("%s: %v allocs per cycle, want 0", c.name, got)
		}
	}
}

// A batch of payload-free envelopes decodes into a pooled slab with one
// allocation, the string every key is cut from.
func TestDecodeBatchIntoAllocs(t *testing.T) {
	skipUnderRace(t)
	envs := make([]Envelope, 16)
	for i := range envs {
		key := fmt.Sprintf("key-%04d", i)
		if i%2 == 0 {
			envs[i] = Envelope{From: types.Writer(1), To: types.Server(2), Key: key, OpID: uint64(i), Round: 1, Payload: Query{}}
		} else {
			envs[i] = Envelope{From: types.Server(2), To: types.Writer(1), Key: key, OpID: uint64(i), Round: 2, IsReply: true, Payload: UpdateAck{}}
		}
	}
	frame, err := EncodeBatch(envs)
	if err != nil {
		t.Fatal(err)
	}
	got := testing.AllocsPerRun(200, func() {
		out, _, err := DecodeBatchInto(GetEnvs(), frame)
		if err != nil {
			t.Fatal(err)
		}
		PutEnvs(out)
	})
	if got != 1 {
		t.Errorf("DecodeBatchInto of a 16-envelope Query/UpdateAck batch: %v allocs, want 1", got)
	}
}

// A batch of value-carrying envelopes decodes into a pooled slab. 16
// QueryAcks take 1 allocation: the frame's block, which holds the value
// arena every Val points into and the text every key and value's Data is
// cut from (the two were separate allocations before, boxing each
// QueryAck into its Message added 16, and giving each Data its own string
// did too). 16 Updates take the same 1: their Data is cut too, and a
// replica that keeps one adopts it in one allocation of its own
// (cutsPayload), where decoding each into a string of its own took 18.
// 16 LogAcks of a written value and a read mark take 33: the text, which
// is a block of its own because a LogAck has no arena, and per log its
// box and the one slice of its events, whose Data is cut (growing that
// slice one append at a time took 49).
func TestDecodeValueBatchAllocs(t *testing.T) {
	skipUnderRace(t)
	val := func(i int) types.Value {
		return types.Value{Tag: types.Tag{TS: int64(i + 1), WID: types.Writer(1)}, Data: fmt.Sprintf("value-%04d", i)}
	}
	acks := make([]Envelope, 16)
	updates := make([]Envelope, 16)
	logs := make([]Envelope, 16)
	for i := range acks {
		key := fmt.Sprintf("key-%04d", i)
		v := val(i)
		acks[i] = Envelope{From: types.Server(2), To: types.Writer(1), Key: key, OpID: uint64(i), Round: 1, IsReply: true, Payload: QueryAck{Val: &v}}
		updates[i] = Envelope{From: types.Writer(1), To: types.Server(2), Key: key, OpID: uint64(i), Round: 2, Payload: Update{Val: &v}}
		logs[i] = Envelope{From: types.Server(2), To: types.Reader(1), Key: key, OpID: uint64(i), Round: 1, IsReply: true,
			Payload: LogAck{Events: []LogEvent{{Client: types.Writer(1), Val: v}, {Client: types.Reader(1)}}}}
	}
	for _, c := range []struct {
		name string
		envs []Envelope
		want float64
	}{
		{"QueryAck", acks, 1},
		{"Update", updates, 1},
		{"LogAck", logs, 33},
	} {
		frame, err := EncodeBatch(c.envs)
		if err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(200, func() {
			out, _, err := DecodeBatchInto(GetEnvs(), frame)
			if err != nil {
				t.Fatal(err)
			}
			PutEnvs(out)
		})
		if got != c.want {
			t.Errorf("DecodeBatchInto of a 16-envelope %s batch: %v allocs, want %v", c.name, got, c.want)
		}
	}
}

// A batch of fast-read envelopes decodes into a pooled slab with one
// allocation for the frame's block, which holds its arenas and the text
// every key and payload is cut from, and one per boxed message: 16
// FastReads with two-value valQueues take 1, since each *FastRead's
// header sits in the block, and 16 FastReadAcks of two entries each take
// 17. Before the block, the text and each arena were allocations of
// their own: 18 for the FastReads (text, value arena and 16 boxes) and
// 19 for the FastReadAcks (text, vector arena and updated-set arena).
func TestDecodeFastReadBatchAllocs(t *testing.T) {
	skipUnderRace(t)
	val := func(i int) types.Value {
		return types.Value{Tag: types.Tag{TS: int64(i + 1), WID: types.Writer(1 + i%2)}, Data: fmt.Sprintf("value-%04d", i)}
	}
	reads := make([]Envelope, 16)
	acks := make([]Envelope, 16)
	for i := range reads {
		key := fmt.Sprintf("key-%04d", i)
		reads[i] = Envelope{From: types.Reader(1), To: types.Server(2), Key: key, OpID: uint64(i), Round: 1,
			Payload: &FastRead{ValQueue: []types.Value{val(i), val(i + 1)}}}
		acks[i] = Envelope{From: types.Server(2), To: types.Reader(1), Key: key, OpID: uint64(i), Round: 1, IsReply: true,
			Payload: FastReadAck{Vector: []VectorEntry{
				{Val: val(i), Updated: []types.ProcID{types.Reader(1), types.Writer(1)}},
				{Val: val(i + 1), Updated: []types.ProcID{types.Writer(2)}},
			}, Floor: val(i).Tag}}
	}
	for _, c := range []struct {
		name string
		envs []Envelope
		want float64
	}{
		{"FastRead", reads, 1},
		{"FastReadAck", acks, 17},
	} {
		frame, err := EncodeBatch(c.envs)
		if err != nil {
			t.Fatal(err)
		}
		got := testing.AllocsPerRun(200, func() {
			out, _, err := DecodeBatchInto(GetEnvs(), frame)
			if err != nil {
				t.Fatal(err)
			}
			PutEnvs(out)
		})
		if got != c.want {
			t.Errorf("DecodeBatchInto of a 16-envelope %s batch: %v allocs, want %v", c.name, got, c.want)
		}
	}
}
