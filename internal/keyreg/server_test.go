package keyreg

import (
	"strings"
	"testing"
	"unsafe"

	"fastreg/internal/register"
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
