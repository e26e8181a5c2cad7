package opkit_test

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"
	"unsafe"
	"weak"

	"fastreg/internal/crucialinfo"
	"fastreg/internal/opkit"
	"fastreg/internal/proto"
	"fastreg/internal/register"
	"fastreg/internal/types"
)

// A replica that keeps an Update's value keeps no part of the frame it
// came in: neither the frame's text, which every key and Data is cut from,
// nor its value arena, which every Update's Val points into. Each replica
// kind handles one decoded batch of Updates, one replica per key as a
// fleet holds them, and once the envelopes are dropped a weak pointer to
// the frame's text and arena reads nil after a GC. A VectorServer then
// handles a decoded batch of FastReads, one per replica, and keeps none
// of the *FastRead headers the frame's block holds.
func TestReplicaKeepsNoFrame(t *testing.T) {
	for _, c := range []struct {
		name    string
		replica func() register.ServerLogic
		kept    func(*testing.T, register.ServerLogic) types.Value
		reads   bool // hand the replicas a FastRead frame too
	}{
		{"StoreServer", func() register.ServerLogic { return opkit.NewStoreServer(types.Server(1)) },
			func(_ *testing.T, s register.ServerLogic) types.Value { return s.CurrentValue() }, false},
		{"VectorServer", func() register.ServerLogic { return opkit.NewVectorServer(types.Server(1), 2) },
			func(t *testing.T, s register.ServerLogic) types.Value {
				vec := s.(*opkit.VectorServer).VectorSnapshot()
				if top := vec[len(vec)-1].Val; top != s.CurrentValue() {
					t.Errorf("largest entry %v, vali %v", top, s.CurrentValue())
				}
				return s.CurrentValue()
			}, true},
		{"LogServer", func() register.ServerLogic { return crucialinfo.NewLogServer(types.Server(1)) },
			func(_ *testing.T, s register.ServerLogic) types.Value { return s.(*crucialinfo.LogServer).Log()[0].Val }, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			replicas, text, arena := handleUpdateFrame(t, c.replica)
			var reads []weak.Pointer[proto.FastRead]
			if c.reads {
				reads = handleReadFrame(t, replicas)
			}
			for range 3 {
				runtime.GC()
			}
			if text.Value() != nil {
				t.Error("the replicas keep their Update frame's text alive")
			}
			if arena.Value() != nil {
				t.Error("the replicas keep their Update frame's value arena alive")
			}
			for i, r := range reads {
				if r.Value() != nil {
					t.Errorf("replica of key %d keeps the *FastRead header it handled alive", i)
				}
			}
			for i, s := range replicas {
				if got, want := c.kept(t, s), updateValue(i); got != want {
					t.Errorf("replica of key %d keeps %v, want %v", i, got, want)
				}
			}
		})
	}
}

func updateValue(i int) types.Value {
	return types.Value{Tag: types.Tag{TS: int64(i + 1), WID: types.Writer(1)}, Data: fmt.Sprintf("value-%04d-%s", i, strings.Repeat("p", 20))}
}

// handleUpdateFrame decodes a batch of four Updates, hands each to a
// replica of its own and returns the replicas with weak pointers to the
// frame's text (the first key is cut from its start) and value arena (the
// first Update's Val is its first slot). It keeps nothing else of the
// frame.
func handleUpdateFrame(t *testing.T, replica func() register.ServerLogic) ([]register.ServerLogic, weak.Pointer[byte], weak.Pointer[types.Value]) {
	t.Helper()
	envs := make([]proto.Envelope, 4)
	for i := range envs {
		v := updateValue(i)
		envs[i] = proto.Envelope{From: types.Writer(1), To: types.Server(1), Key: fmt.Sprintf("key-%04d", i), OpID: uint64(i), Round: 2, Payload: proto.Update{Val: &v}}
	}
	frame, err := proto.EncodeBatch(envs)
	if err != nil {
		t.Fatal(err)
	}
	envs, _, err = proto.DecodeBatch(frame)
	if err != nil {
		t.Fatal(err)
	}
	text := weak.Make(unsafe.StringData(envs[0].Key))
	arena := weak.Make(envs[0].Payload.(proto.Update).Val)
	replicas := make([]register.ServerLogic, len(envs))
	for i, e := range envs {
		replicas[i] = replica()
		if _, ok := replicas[i].Handle(e.From, e.Payload).(proto.UpdateAck); !ok {
			t.Fatalf("replica of key %d did not acknowledge its Update", i)
		}
	}
	return replicas, text, arena
}

// handleReadFrame decodes a batch of FastReads, one per replica, whose
// valQueues hold the initial value and the replica's Update value, hands
// each to its replica and returns weak pointers to the *FastRead headers,
// which the decode placed in the frame's block. It keeps nothing else of
// the frame.
func handleReadFrame(t *testing.T, replicas []register.ServerLogic) []weak.Pointer[proto.FastRead] {
	t.Helper()
	envs := make([]proto.Envelope, len(replicas))
	for i := range envs {
		envs[i] = proto.Envelope{From: types.Reader(1), To: types.Server(1), Key: fmt.Sprintf("key-%04d", i), OpID: uint64(i), Round: 1,
			Payload: &proto.FastRead{ValQueue: []types.Value{types.InitialValue(), updateValue(i)}}}
	}
	frame, err := proto.EncodeBatch(envs)
	if err != nil {
		t.Fatal(err)
	}
	envs, _, err = proto.DecodeBatch(frame)
	if err != nil {
		t.Fatal(err)
	}
	reads := make([]weak.Pointer[proto.FastRead], len(envs))
	for i, e := range envs {
		req := e.Payload.(*proto.FastRead)
		reads[i] = weak.Make(req)
		if _, ok := replicas[i].Handle(e.From, req).(proto.FastReadAck); !ok {
			t.Fatalf("replica of key %d did not answer its FastRead", i)
		}
	}
	return reads
}

// A FastRead travels by pointer. Encode rejects a FastRead value, a
// decoded batch of FastReads yields *FastReads whose headers lie inside
// the frame's one block (which starts with the value arena the first
// valQueue is carved from and ends with the text the first key is cut
// from), and the replicas that answer a *FastRead drop a value.
func TestFastReadTravelsByPointer(t *testing.T) {
	queue := func(i int) []types.Value { return []types.Value{types.InitialValue(), updateValue(i)} }
	if _, err := proto.Encode(proto.Envelope{From: types.Reader(1), To: types.Server(1), Round: 1, Payload: proto.FastRead{ValQueue: queue(0)}}); !errors.Is(err, proto.ErrBadKind) {
		t.Errorf("Encode of a FastRead value: %v, want ErrBadKind", err)
	}

	envs := make([]proto.Envelope, 4)
	for i := range envs {
		envs[i] = proto.Envelope{From: types.Reader(1 + i%2), To: types.Server(1), Key: fmt.Sprintf("key-%04d", i), OpID: uint64(i), Round: 1,
			Payload: &proto.FastRead{ValQueue: queue(i)}}
	}
	frame, err := proto.EncodeBatch(envs)
	if err != nil {
		t.Fatal(err)
	}
	out, _, err := proto.DecodeBatch(frame)
	if err != nil {
		t.Fatal(err)
	}
	first, ok := out[0].Payload.(*proto.FastRead)
	if !ok {
		t.Fatalf("decoded a %T, want a *proto.FastRead", out[0].Payload)
	}
	lo, hi := uintptr(unsafe.Pointer(&first.ValQueue[0])), uintptr(unsafe.Pointer(unsafe.StringData(out[0].Key)))
	for i, e := range out {
		m, ok := e.Payload.(*proto.FastRead)
		if !ok {
			t.Fatalf("envelope %d decoded a %T, want a *proto.FastRead", i, e.Payload)
		}
		if p := uintptr(unsafe.Pointer(m)); p <= lo || p >= hi {
			t.Errorf("envelope %d's header at %#x lies outside its frame's block [%#x, %#x)", i, p, lo, hi)
		}
		if !slices.Equal(m.ValQueue, queue(i)) {
			t.Errorf("envelope %d decoded valQueue %v, want %v", i, m.ValQueue, queue(i))
		}
	}

	for _, s := range []register.ServerLogic{
		opkit.NewVectorServer(types.Server(1), 2),
		crucialinfo.NewLogServer(types.Server(1)),
		crucialinfo.NewFlippingServer(types.Server(1), types.Reader(1)),
	} {
		if got := s.Handle(types.Reader(1), proto.FastRead{ValQueue: queue(0)}); got != nil {
			t.Errorf("%T answered a FastRead value with %v, want nil", s, got)
		}
		if got := s.Handle(types.Reader(1), &proto.FastRead{ValQueue: queue(0)}); got == nil {
			t.Errorf("%T did not answer a *FastRead", s)
		}
	}
}
