package fastreg

import (
	"context"
	"fmt"
	"runtime"
	"testing"
)

// maxAllocsPerOp locks the in-process op path's allocation count: the
// allocations per Put or Get measured below (14.15, against 18.2 when
// every recorded op formatted a string key and inserted into a map),
// plus one. Recording an op into its key's history allocates only when
// it opens a new chunk of the log (internal/history).
const maxAllocsPerOp = 15.15

// TestOpPathAllocs runs sequential Put/Get pairs on an in-process W2R2
// S=3 store and fails if an op allocates more than maxAllocsPerOp.
// The store runs at GOMAXPROCS 1, as regbench does: the replicas size
// their worker pools from it, and the count differs with the pool.
func TestOpPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts under the race detector are inflated and vary: its sync.Pool drops items at random")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	s, err := Open(Config{Servers: 3, MaxCrashes: 1, Writers: 1, Readers: 1}, W2R2)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	w, _ := s.Writer(1)
	r, _ := s.Reader(1)
	ctx := context.Background()
	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
		if _, err := w.Put(ctx, keys[i], "v"); err != nil { // every key's first touch is set-up
			t.Fatal(err)
		}
	}
	// 40 runs of 50 pairs: AllocsPerRun truncates to whole allocations
	// per run, so a run of 100 ops resolves 0.01 per op.
	const pairs = 50
	i := 0
	perRun := testing.AllocsPerRun(40, func() {
		for range pairs {
			k := keys[i%len(keys)]
			i++
			if _, err := w.Put(ctx, k, "v"); err != nil {
				t.Fatal(err)
			}
			if _, _, _, err := r.Get(ctx, k); err != nil {
				t.Fatal(err)
			}
		}
	})
	perOp := perRun / (2 * pairs)
	t.Logf("%.2f allocs per op", perOp)
	if perOp > maxAllocsPerOp {
		t.Fatalf("%.2f allocs per Put/Get, want ≤ %.2f", perOp, maxAllocsPerOp)
	}
}
