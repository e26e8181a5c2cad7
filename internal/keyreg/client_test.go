package keyreg

import (
	"sync"
	"testing"

	"fastreg/internal/protocols"
	"fastreg/internal/quorum"
	"fastreg/internal/types"
)

// TestClientStateSparseIdentities uses only w3 and r8 of a W=4, R=8
// shape: each gets its own state machine, created once, and its own op
// counter — r3 does not share w3's, though both have index 3.
func TestClientStateSparseIdentities(t *testing.T) {
	cfg := quorum.Config{S: 3, T: 1, R: 8, W: 4}
	p := protocols.Must("W2R2")
	st := NewClientRegistry(0).Acquire("k")
	w3, r8 := types.Writer(3), types.Reader(8)
	w := st.Writer(w3, p, cfg)
	if w.ID() != w3 || st.Writer(w3, p, cfg) != w {
		t.Fatalf("Writer(w3) = %v, not one state machine for w3", w.ID())
	}
	r := st.Reader(r8, p, cfg)
	if r.ID() != r8 || st.Reader(r8, p, cfg) != r {
		t.Fatalf("Reader(r8) = %v, not one state machine for r8", r.ID())
	}
	for want := uint64(1); want <= 3; want++ {
		if got := st.NextOpID(w3, cfg); got != want {
			t.Fatalf("NextOpID(w3) = %d, want %d", got, want)
		}
	}
	if got := st.NextOpID(r8, cfg); got != 1 {
		t.Fatalf("NextOpID(r8) = %d, want 1", got)
	}
	if got := st.NextOpID(types.Reader(3), cfg); got != 1 {
		t.Fatalf("NextOpID(r3) = %d after w3's three ops, want 1", got)
	}
}

// TestClientStateConcurrentIdentities has every identity of a shape
// fetch its state machine and draw op IDs at once on one key (run it
// under -race): each sees one state machine and the IDs 1..n in order.
func TestClientStateConcurrentIdentities(t *testing.T) {
	cfg := quorum.Config{S: 3, T: 1, R: 8, W: 8}
	p := protocols.Must("W2R2")
	st := NewClientRegistry(0).Acquire("k")
	const n = 200
	var ids []types.ProcID
	for i := 1; i <= cfg.W; i++ {
		ids = append(ids, types.Writer(i))
	}
	for i := 1; i <= cfg.R; i++ {
		ids = append(ids, types.Reader(i))
	}
	var wg sync.WaitGroup
	for _, id := range ids {
		wg.Add(1)
		go func() {
			defer wg.Done()
			get := func() types.ProcID {
				if id.Role == types.RoleWriter {
					return st.Writer(id, p, cfg).ID()
				}
				return st.Reader(id, p, cfg).ID()
			}
			for want := uint64(1); want <= n; want++ {
				if got := get(); got != id {
					t.Errorf("%v got the state machine of %v", id, got)
					return
				}
				if got := st.NextOpID(id, cfg); got != want {
					t.Errorf("%v: NextOpID = %d, want %d", id, got, want)
					return
				}
			}
		}()
	}
	wg.Wait()
}
