package keyreg

import (
	"strings"
	"testing"
	"unsafe"

	"fastreg/internal/opkit"
	"fastreg/internal/proto"
	"fastreg/internal/register"
	"fastreg/internal/types"
)

// A key decoded off the wire is a slice of its whole frame, so the map
// must store a copy of it, not the slice that pins the frame.
func TestGetLockedClonesKey(t *testing.T) {
	r := NewServerRegistry(1, func() register.ServerLogic { return nil })
	frame := strings.Repeat("x", 64) + "key-0001" + strings.Repeat("y", 64)
	key := frame[64:72]
	sh := r.Shard(r.ShardIndex(key))
	sh.Lock()
	defer sh.Unlock()
	st := sh.GetLocked(key)
	if again := sh.GetLocked(strings.Clone(key)); again != st {
		t.Fatal("a second GetLocked of the same key made new state")
	}
	if len(sh.m) != 1 {
		t.Fatalf("map holds %d keys, want 1", len(sh.m))
	}
	for stored := range sh.m {
		if stored != key {
			t.Fatalf("stored key %q, want %q", stored, key)
		}
		if unsafe.StringData(stored) == unsafe.StringData(key) {
			t.Fatal("the map stores the caller's slice of the frame, not a copy")
		}
	}
}

// TestSweepKeepsWriteBetweenRounds: a write's TagQuery opens it at the
// replica, so the sweep that evicts an idle key keeps one whose write has
// had its query round and not yet its update; the update closes it.
func TestSweepKeepsWriteBetweenRounds(t *testing.T) {
	r := NewServerRegistry(1, func() register.ServerLogic { return opkit.NewStoreServer(types.Server(1)) })
	v := types.Value{Tag: types.Tag{TS: 1, WID: types.Writer(1)}, Data: "v"}
	handle := func(key string, round uint8, m proto.Message) {
		sh := r.Shard(r.ShardIndex(key))
		sh.Lock()
		defer sh.Unlock()
		st := sh.GetLocked(key)
		st.Touch(proto.Envelope{From: types.Writer(1), Key: key, OpID: 1, Round: round, Payload: m}, r.Epoch(), 2)
		st.Logic.Handle(types.Writer(1), m)
	}
	handle("mid", 1, proto.TagQuery{})
	handle("done", 1, proto.TagQuery{})
	handle("done", 2, proto.Update{Val: &v})
	r.Sweep()
	if n := r.Sweep(); n != 1 {
		t.Fatalf("second sweep evicted %d keys, want 1 (the finished write's)", n)
	}
	if _, ok := r.Value("mid"); !ok {
		t.Fatal("the key with a write between its rounds was evicted")
	}
	handle("mid", 2, proto.Update{Val: &v})
	r.Sweep()
	if n := r.Sweep(); n != 1 || r.KeyCount() != 0 {
		t.Fatalf("after the update: evicted %d, %d keys left; want 1, 0", n, r.KeyCount())
	}
}
