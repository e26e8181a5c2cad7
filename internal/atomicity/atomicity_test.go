package atomicity

import (
	"math/rand"
	"strings"
	"testing"

	"fastreg/internal/history"
	"fastreg/internal/register"
	"fastreg/internal/types"
	"fastreg/internal/vclock"
)

func wv(ts int64, w int, data string) types.Value {
	return types.Value{Tag: types.Tag{TS: ts, WID: types.Writer(w)}, Data: data}
}

func TestEmptyHistoryAtomic(t *testing.T) {
	res := Check(history.History{})
	if !res.Atomic {
		t.Error("empty history must be atomic")
	}
}

func TestSequentialHistoryAtomic(t *testing.T) {
	v1, v2 := wv(1, 1, "a"), wv(2, 2, "b")
	h := history.NewBuilder().
		Seq(types.Writer(1), types.OpWrite, v1).
		Seq(types.Reader(1), types.OpRead, v1).
		Seq(types.Writer(2), types.OpWrite, v2).
		Seq(types.Reader(2), types.OpRead, v2).
		History()
	res := Check(h)
	if !res.Atomic {
		t.Fatalf("sequential history rejected: %v", res)
	}
	if len(res.Linearization) != 4 {
		t.Errorf("linearization length = %d", len(res.Linearization))
	}
}

func TestReadInitialValue(t *testing.T) {
	h := history.NewBuilder().
		Seq(types.Reader(1), types.OpRead, types.InitialValue()).
		History()
	if res := Check(h); !res.Atomic {
		t.Errorf("read of initial value rejected: %v", res)
	}
}

func TestStaleSequentialReadRejected(t *testing.T) {
	v1, v2 := wv(1, 1, "a"), wv(2, 2, "b")
	h := history.NewBuilder().
		Seq(types.Writer(1), types.OpWrite, v1).
		Seq(types.Writer(2), types.OpWrite, v2).
		Seq(types.Reader(1), types.OpRead, v1). // stale: must return v2
		History()
	res := Check(h)
	if res.Atomic {
		t.Fatal("stale read accepted")
	}
}

func TestConcurrentWriteEitherOrderOK(t *testing.T) {
	v1, v2 := wv(1, 1, "a"), wv(1, 2, "b")
	// W1 || W2, then two sequential reads both return v1: fine (W2 ordered
	// first in π).
	h := history.NewBuilder().
		Add(types.Writer(1), types.OpWrite, v1, 1, 10).
		Add(types.Writer(2), types.OpWrite, v2, 2, 9).
		Add(types.Reader(1), types.OpRead, v1, 11, 12).
		Add(types.Reader(2), types.OpRead, v1, 13, 14).
		History()
	if res := Check(h); !res.Atomic {
		t.Errorf("concurrent writes order should be free: %v", res)
	}
	// But the two readers must agree: v1 then v2 with reads sequential is a
	// violation (register cannot go back to v2 ... unless writes allow it —
	// here both writes finished before the reads).
	h2 := history.NewBuilder().
		Add(types.Writer(1), types.OpWrite, v1, 1, 10).
		Add(types.Writer(2), types.OpWrite, v2, 2, 9).
		Add(types.Reader(1), types.OpRead, v1, 11, 12).
		Add(types.Reader(2), types.OpRead, v2, 13, 14).
		History()
	if res := Check(h2); res.Atomic {
		t.Error("disagreeing sequential reads after both writes completed must be rejected")
	}
}

func TestReadConcurrentWithWriteMayReturnEither(t *testing.T) {
	v1 := wv(1, 1, "a")
	old := history.NewBuilder().
		Add(types.Writer(1), types.OpWrite, v1, 5, 15).
		Add(types.Reader(1), types.OpRead, types.InitialValue(), 6, 14).
		History()
	if res := Check(old); !res.Atomic {
		t.Errorf("concurrent read returning old value rejected: %v", res)
	}
	neu := history.NewBuilder().
		Add(types.Writer(1), types.OpWrite, v1, 5, 15).
		Add(types.Reader(1), types.OpRead, v1, 6, 14).
		History()
	if res := Check(neu); !res.Atomic {
		t.Errorf("concurrent read returning new value rejected: %v", res)
	}
}

func TestReadFromNowhere(t *testing.T) {
	h := history.NewBuilder().
		Seq(types.Reader(1), types.OpRead, wv(7, 1, "ghost")).
		History()
	res := Check(h)
	if res.Atomic {
		t.Fatal("read from nowhere accepted")
	}
	if res.Violation.Code != ReadFromNowhere {
		t.Errorf("code = %v", res.Violation.Code)
	}
}

func TestReadFromFuture(t *testing.T) {
	v := wv(1, 1, "a")
	h := history.NewBuilder().
		Add(types.Reader(1), types.OpRead, v, 1, 2).
		Add(types.Writer(1), types.OpWrite, v, 5, 6).
		History()
	res := Check(h)
	if res.Atomic {
		t.Fatal("read from the future accepted")
	}
	if res.Violation.Code != ReadFromFuture {
		t.Errorf("code = %v", res.Violation.Code)
	}
}

func TestNewOldInversion(t *testing.T) {
	v1, v2 := wv(1, 1, "new"), wv(2, 2, "old")
	// w2 writes v2, then w1 writes v1 (sequential). r1 reads v1, then r2
	// reads v2: inversion.
	h := history.NewBuilder().
		Add(types.Writer(2), types.OpWrite, v2, 1, 2).
		Add(types.Writer(1), types.OpWrite, v1, 3, 4).
		Add(types.Reader(1), types.OpRead, v1, 5, 6).
		Add(types.Reader(2), types.OpRead, v2, 7, 8).
		History()
	res := Check(h)
	if res.Atomic {
		t.Fatal("new-old inversion accepted")
	}
	if res.Violation.Code != NewOldInversion {
		t.Errorf("code = %v, want new-old-inversion", res.Violation.Code)
	}
	if !strings.Contains(res.String(), "VIOLATION") {
		t.Errorf("String = %q", res.String())
	}
}

func TestInversionAgainstInitialValue(t *testing.T) {
	v1 := wv(1, 1, "a")
	h := history.NewBuilder().
		Add(types.Writer(1), types.OpWrite, v1, 1, 2).
		Add(types.Reader(1), types.OpRead, v1, 3, 4).
		Add(types.Reader(2), types.OpRead, types.InitialValue(), 5, 6).
		History()
	res := Check(h)
	if res.Atomic {
		t.Fatal("regression to initial value accepted")
	}
}

func TestPendingWriteMayBeRead(t *testing.T) {
	v := wv(1, 1, "a")
	// The write never completes (writer crashed mid-flight), but a read
	// returns its value: must be accepted (the write is linearized).
	h := history.NewBuilder().
		AddPending(types.Writer(1), types.OpWrite, v, 1).
		Add(types.Reader(1), types.OpRead, v, 5, 6).
		History()
	if res := Check(h); !res.Atomic {
		t.Errorf("read of pending write rejected: %v", res)
	}
}

func TestPendingWriteMayBeDropped(t *testing.T) {
	v := wv(1, 1, "a")
	h := history.NewBuilder().
		AddPending(types.Writer(1), types.OpWrite, v, 1).
		Add(types.Reader(1), types.OpRead, types.InitialValue(), 5, 6).
		Add(types.Reader(1), types.OpRead, types.InitialValue(), 7, 8).
		History()
	if res := Check(h); !res.Atomic {
		t.Errorf("history with dropped pending write rejected: %v", res)
	}
}

func TestPendingWriteCannotFlipFlop(t *testing.T) {
	v := wv(1, 1, "a")
	// r1 reads v, r2 (after r1) reads initial: the pending write must be
	// both linearized (for r1) and not (for r2) — violation.
	h := history.NewBuilder().
		AddPending(types.Writer(1), types.OpWrite, v, 1).
		Add(types.Reader(1), types.OpRead, v, 5, 6).
		Add(types.Reader(2), types.OpRead, types.InitialValue(), 7, 8).
		History()
	if res := Check(h); res.Atomic {
		t.Error("flip-flop around pending write accepted")
	}
}

func TestTimedOutWriteValueMayBeRead(t *testing.T) {
	// A write that timed out is recorded as FAILED (not merely pending),
	// but its Update may still have landed at the servers. The checker
	// models failed writes as optional ops, so a later read returning the
	// timed-out value must pass, so a violated verdict stays binding
	// even when some op timed out.
	v := wv(1, 1, "a")
	rec := history.NewRecorder(&vclock.Clock{})
	wk := rec.Invoke(types.Writer(1), 1, types.OpWrite, v)
	rec.Respond(wk, types.Value{}, register.ErrTimeout)
	rk := rec.Invoke(types.Reader(1), 1, types.OpRead, types.Value{})
	rec.Respond(rk, v, nil)
	h := rec.History()
	if n := len(h.Failed()); n != 1 {
		t.Fatalf("failed ops = %d, want 1", n)
	}
	if res := Check(h); !res.Atomic {
		t.Errorf("read of timed-out write's value rejected: %v", res)
	}

	// The converse also holds — the timed-out write may equally have
	// never landed.
	rec = history.NewRecorder(&vclock.Clock{})
	wk = rec.Invoke(types.Writer(1), 1, types.OpWrite, v)
	rec.Respond(wk, types.Value{}, register.ErrTimeout)
	rk = rec.Invoke(types.Reader(1), 1, types.OpRead, types.Value{})
	rec.Respond(rk, types.InitialValue(), nil)
	if res := Check(rec.History()); !res.Atomic {
		t.Errorf("dropped timed-out write rejected: %v", res)
	}

	// And the checker keeps its teeth: a read of a value NO write (not
	// even a timed-out one) produced is still a violation.
	rec = history.NewRecorder(&vclock.Clock{})
	wk = rec.Invoke(types.Writer(1), 1, types.OpWrite, v)
	rec.Respond(wk, types.Value{}, register.ErrTimeout)
	rk = rec.Invoke(types.Reader(1), 1, types.OpRead, types.Value{})
	rec.Respond(rk, wv(9, 2, "ghost"), nil)
	if res := Check(rec.History()); res.Atomic {
		t.Error("read-from-nowhere accepted in a run with timeouts")
	}
}

func TestWriteOrderForcedByReads(t *testing.T) {
	v1, v2 := wv(1, 1, "a"), wv(1, 2, "b")
	// Writes concurrent; r1 reads v1 then r2 reads v2 (sequential reads):
	// consistent — π = W1 R1 W2 R2.
	h := history.NewBuilder().
		Add(types.Writer(1), types.OpWrite, v1, 1, 20).
		Add(types.Writer(2), types.OpWrite, v2, 2, 19).
		Add(types.Reader(1), types.OpRead, v1, 3, 4).
		Add(types.Reader(2), types.OpRead, v2, 5, 6).
		History()
	if res := Check(h); !res.Atomic {
		t.Errorf("rejected: %v", res)
	}
	// But v1, v2, then v1 again is impossible.
	h2 := history.NewBuilder().
		Add(types.Writer(1), types.OpWrite, v1, 1, 20).
		Add(types.Writer(2), types.OpWrite, v2, 2, 19).
		Add(types.Reader(1), types.OpRead, v1, 3, 4).
		Add(types.Reader(2), types.OpRead, v2, 5, 6).
		Add(types.Reader(1), types.OpRead, v1, 7, 8).
		History()
	if res := Check(h2); res.Atomic {
		t.Error("value flip-flop accepted")
	}
}

func TestDuplicateWriteValuesHandledBySearch(t *testing.T) {
	v := wv(1, 1, "same")
	// Two writes of the identical value; reads of it are fine anywhere
	// after the first write.
	h := history.NewBuilder().
		Seq(types.Writer(1), types.OpWrite, v).
		Seq(types.Reader(1), types.OpRead, v).
		Seq(types.Writer(1), types.OpWrite, v).
		Seq(types.Reader(1), types.OpRead, v).
		History()
	if res := Check(h); !res.Atomic {
		t.Errorf("duplicate write values rejected: %v", res)
	}
}

// Cross-validate the search against brute-force permutations on random
// small histories.
func TestCheckAgainstBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	vals := []types.Value{wv(1, 1, "a"), wv(1, 2, "b"), wv(2, 1, "c"), types.InitialValue()}
	for trial := 0; trial < 400; trial++ {
		b := history.NewBuilder()
		n := 2 + r.Intn(5)
		var tmax vclock.Time = 1
		for i := 0; i < n; i++ {
			client := types.Writer(1 + i) // distinct clients: free interleaving
			kind := types.OpWrite
			v := vals[r.Intn(3)]
			if r.Intn(2) == 0 {
				kind = types.OpRead
				v = vals[r.Intn(4)]
			}
			inv := tmax + vclock.Time(r.Intn(3))
			resp := inv + 1 + vclock.Time(r.Intn(6))
			if r.Intn(3) > 0 {
				tmax = resp // mostly sequential, sometimes overlapping
			}
			b.Add(client, kind, v, inv, resp)
		}
		h := b.History()
		want := CheckPermutations(h)
		got := Check(h).Atomic
		if got != want {
			t.Fatalf("trial %d: Check=%v brute=%v\n%s", trial, got, want, h)
		}
	}
}

func TestResultStringAtomic(t *testing.T) {
	h := history.NewBuilder().Seq(types.Reader(1), types.OpRead, types.InitialValue()).History()
	res := Check(h)
	if !strings.Contains(res.String(), "ATOMIC") {
		t.Errorf("String = %q", res.String())
	}
}

func TestCodeString(t *testing.T) {
	codes := map[Code]string{
		ReadFromNowhere: "read-from-nowhere",
		ReadFromFuture:  "read-from-future",
		NewOldInversion: "new-old-inversion",
		NoLinearization: "no-linearization",
		Code(0):         "unknown",
	}
	for c, want := range codes {
		if c.String() != want {
			t.Errorf("Code(%d) = %q, want %q", c, c.String(), want)
		}
	}
}

func TestLongSequentialHistoryFast(t *testing.T) {
	// 200 operations, strictly sequential: must check instantly (memoized
	// search degenerates to a single path).
	b := history.NewBuilder()
	last := types.InitialValue()
	for i := 0; i < 100; i++ {
		v := wv(int64(i+1), 1+i%2, "d")
		b.Seq(types.Writer(1+i%2), types.OpWrite, v)
		last = v
		b.Seq(types.Reader(1+i%2), types.OpRead, last)
	}
	if res := Check(b.History()); !res.Atomic {
		t.Errorf("long sequential history rejected: %v", res)
	}
}
