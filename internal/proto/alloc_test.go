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

// A batch of QueryAcks decodes into a pooled slab with one allocation for
// the string every key is cut from, one for the value arena every Val
// points into, and one per value's Data: 18 for 16 envelopes. Boxing each
// QueryAck into its Message would add 16.
func TestDecodeValueBatchAllocs(t *testing.T) {
	skipUnderRace(t)
	envs := make([]Envelope, 16)
	for i := range envs {
		v := types.Value{Tag: types.Tag{TS: int64(i + 1), WID: types.Writer(1)}, Data: fmt.Sprintf("value-%04d", i)}
		envs[i] = Envelope{From: types.Server(2), To: types.Writer(1), Key: fmt.Sprintf("key-%04d", i), OpID: uint64(i), Round: 1, IsReply: true, Payload: QueryAck{Val: &v}}
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
	if got != 18 {
		t.Errorf("DecodeBatchInto of a 16-envelope QueryAck batch: %v allocs, want 18", got)
	}
}
