package opkit

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"unsafe"
	"weak"

	"fastreg/internal/crucialinfo"
	"fastreg/internal/proto"
	"fastreg/internal/register"
	"fastreg/internal/types"
)

// adopt copies a value and its payload in one allocation up to the largest
// box (984 bytes) and in two past it, and the copy never shares the
// argument's bytes. Each box fills a size class of Go's allocator.
func TestAdoptAllocs(t *testing.T) {
	for b, want := range map[uintptr]uintptr{
		unsafe.Sizeof(owned[[8]byte]{}):   48,
		unsafe.Sizeof(owned[[24]byte]{}):  64,
		unsafe.Sizeof(owned[[40]byte]{}):  80,
		unsafe.Sizeof(owned[[88]byte]{}):  128,
		unsafe.Sizeof(owned[[216]byte]{}): 256,
		unsafe.Sizeof(owned[[280]byte]{}): 320,
		unsafe.Sizeof(owned[[472]byte]{}): 512,
		unsafe.Sizeof(owned[[984]byte]{}): 1024,
	} {
		if b != want {
			t.Errorf("an owned box takes %d bytes, want %d", b, want)
		}
	}
	for _, n := range []int{0, 1, 8, 9, 32, 256, 984, 985, 4096} {
		// The payload is a slice of a larger string, as a cut Data is.
		frame := strings.Repeat("x", 7) + strings.Repeat("v", n) + "tail"
		v := types.Value{Tag: types.Tag{TS: int64(n + 1), WID: types.Writer(2)}, Data: frame[7 : 7+n]}
		var got *types.Value
		allocs := testing.AllocsPerRun(100, func() { got = adopt(v) })
		want := 1.0
		if n > 984 {
			want = 2
		}
		if allocs != want {
			t.Errorf("adopt of a %d-byte payload: %v allocs, want %v", n, allocs, want)
		}
		if *got != v {
			t.Errorf("adopt of a %d-byte payload: %v, want %v", n, *got, v)
		}
		if n > 0 && unsafe.StringData(got.Data) == unsafe.StringData(v.Data) {
			t.Errorf("adopt of a %d-byte payload shares the argument's bytes", n)
		}
	}
}

// A replica that keeps an Update's value keeps no part of the frame it
// came in: neither the frame's text, which every key and Data is cut from,
// nor its value arena, which every Update's Val points into. Each replica
// kind handles one decoded batch of Updates, one replica per key as a
// fleet holds them, and once the envelopes are dropped a weak pointer to
// the frame's text and arena reads nil after a GC.
func TestReplicaKeepsNoFrame(t *testing.T) {
	for _, c := range []struct {
		name    string
		replica func() register.ServerLogic
		kept    func(*testing.T, register.ServerLogic) types.Value
	}{
		{"StoreServer", func() register.ServerLogic { return NewStoreServer(types.Server(1)) },
			func(_ *testing.T, s register.ServerLogic) types.Value { return s.CurrentValue() }},
		{"VectorServer", func() register.ServerLogic { return NewVectorServer(types.Server(1), 2) },
			func(t *testing.T, s register.ServerLogic) types.Value {
				vec := s.(*VectorServer).vec
				if top := vec[len(vec)-1].Val; top != s.CurrentValue() {
					t.Errorf("largest entry %v, vali %v", top, s.CurrentValue())
				}
				return s.CurrentValue()
			}},
		{"LogServer", func() register.ServerLogic { return crucialinfo.NewLogServer(types.Server(1)) },
			func(_ *testing.T, s register.ServerLogic) types.Value { return s.(*crucialinfo.LogServer).Log()[0].Val }},
	} {
		t.Run(c.name, func(t *testing.T) {
			replicas, text, arena := handleUpdateFrame(t, c.replica)
			for range 3 {
				runtime.GC()
			}
			if text.Value() != nil {
				t.Error("the replicas keep their Update frame's text alive")
			}
			if arena.Value() != nil {
				t.Error("the replicas keep their Update frame's value arena alive")
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
