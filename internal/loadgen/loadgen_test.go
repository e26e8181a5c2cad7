package loadgen

import (
	"context"
	"testing"
	"time"

	"fastreg"
)

func openStore(t *testing.T) *fastreg.Store {
	t.Helper()
	st, err := fastreg.Open(fastreg.Config{Servers: 3, MaxCrashes: 1, Readers: 4, Writers: 4}, fastreg.W2R2)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)
	return st
}

func run(t *testing.T, seed int64) *Report {
	t.Helper()
	st := openStore(t)
	rep, err := Run(context.Background(), st, Config{
		Seed:      seed,
		Writers:   []int{1, 2, 3, 4},
		Readers:   []int{1, 2, 3, 4},
		Keys:      16,
		Rate:      2000,
		Duration:  150 * time.Millisecond,
		WriteFrac: 0.3,
		ValueSize: 32,
	})
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestRunAccounting(t *testing.T) {
	rep := run(t, 42)
	if rep.Scheduled == 0 {
		t.Fatal("no arrivals scheduled")
	}
	if got := rep.Completed + rep.Failed + rep.Dropped; got != rep.Scheduled {
		t.Fatalf("accounting leak: %d completed + %d failed + %d dropped != %d scheduled",
			rep.Completed, rep.Failed, rep.Dropped, rep.Scheduled)
	}
	if rep.Failed != 0 {
		t.Fatalf("%d operations failed against a healthy in-process fleet", rep.Failed)
	}
	if rep.Completed > 0 && rep.Merged.Count != uint64(rep.Completed) {
		t.Fatalf("merged histogram saw %d ops, report says %d completed", rep.Merged.Count, rep.Completed)
	}
}

// The arrival schedule is a pure function of the seed: two runs must
// produce the identical number of arrivals even though completion
// timing (and thus the completed/dropped split) may differ.
func TestScheduleDeterminism(t *testing.T) {
	a, b := run(t, 7), run(t, 7)
	if a.Scheduled != b.Scheduled {
		t.Fatalf("same seed scheduled %d vs %d arrivals", a.Scheduled, b.Scheduled)
	}
	c := run(t, 8)
	if c.Scheduled == a.Scheduled && c.Writes == a.Writes {
		t.Logf("note: seeds 7 and 8 coincide on (%d arrivals, %d writes) — suspicious but not impossible", c.Scheduled, c.Writes)
	}
}

func TestConfigValidation(t *testing.T) {
	st := openStore(t)
	one := []int{1}
	bad := []Config{
		{Writers: nil, Readers: one, Keys: 1, Rate: 1, Duration: time.Millisecond},
		{Writers: one, Readers: one, Keys: 0, Rate: 1, Duration: time.Millisecond},
		{Writers: one, Readers: one, Keys: 1, Rate: 0, Duration: time.Millisecond},
		{Writers: one, Readers: one, Keys: 1, Rate: 1, Duration: 0},
		{Writers: one, Readers: one, Keys: 1, Rate: 1, Duration: time.Millisecond, WriteFrac: 1.5},
		{Writers: one, Readers: one, Keys: 1, Rate: 1, Duration: time.Millisecond, ZipfS: 0.5},
		{Writers: []int{99}, Readers: one, Keys: 1, Rate: 1, Duration: time.Millisecond}, // exceeds cluster shape
	}
	for i, cfg := range bad {
		if _, err := Run(context.Background(), st, cfg); err == nil {
			t.Errorf("config %d accepted: %+v", i, cfg)
		}
	}
}

func TestRateAt(t *testing.T) {
	c := Config{Rate: 100, EndRate: 300, Duration: time.Second}
	if got := c.RateAt(0); got != 100 {
		t.Fatalf("RateAt(0) = %v", got)
	}
	if got := c.RateAt(500 * time.Millisecond); got != 200 {
		t.Fatalf("RateAt(mid) = %v", got)
	}
	if got := c.RateAt(2 * time.Second); got != 300 {
		t.Fatalf("RateAt past end = %v (ramp must clamp)", got)
	}
	flat := Config{Rate: 50}
	if got := flat.RateAt(time.Hour); got != 50 {
		t.Fatalf("flat RateAt = %v", got)
	}
}
