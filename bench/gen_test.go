package main

import (
	"testing"
	"time"
)

func workloadNamed(t *testing.T, name string) workload {
	t.Helper()
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	t.Fatalf("no workload %q", name)
	return workload{}
}

// One seed must always yield the same inputs, byte for byte: a later
// commit is compared against this one on the same schedule.
func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a := buildSchedule(w, 1, "window", time.Second).hash()
		b := buildSchedule(w, 1, "window", time.Second).hash()
		if a != b {
			t.Errorf("%s: seed 1 gave two schedules: %s, %s", w.name, a, b)
		}
		if c := buildSchedule(w, 2, "window", time.Second).hash(); c == a {
			t.Errorf("%s: seeds 1 and 2 gave the same schedule", w.name)
		}
		if c := buildSchedule(w, 1, "warm", time.Second).hash(); c == a {
			t.Errorf("%s: the warm-up repeats the window's schedule", w.name)
		}
	}
}

// The golden hash pins the generator itself: changing how a schedule is
// derived from a seed changes every later comparison's inputs, and must
// show up as a failing test, not as a shifted number.
func TestScheduleGolden(t *testing.T) {
	const want = "6c859258602921fbbc0134cfd6e9eec1e85f041acc886b091f9880ce4bd2d6d7"
	got := buildSchedule(workloadNamed(t, "tcp-open"), 1, "window", time.Second).hash()
	if got != want {
		t.Errorf("tcp-open seed 1, 1s: schedule hash %s, want %s", got, want)
	}
}

// (tcp-open-audited − tcp-open) is only the price of the optional taxes
// if both receive the same operations; likewise inproc-sat and tcp-sat.
func TestPairedWorkloadsShareASchedule(t *testing.T) {
	for _, pair := range [][2]string{{"tcp-open", "tcp-open-audited"}, {"tcp-sat", "inproc-sat"}} {
		a := buildSchedule(workloadNamed(t, pair[0]), 7, "window", time.Second).hash()
		b := buildSchedule(workloadNamed(t, pair[1]), 7, "window", time.Second).hash()
		if a != b {
			t.Errorf("%s and %s got different schedules from one seed", pair[0], pair[1])
		}
	}
}

func TestOpenScheduleShape(t *testing.T) {
	w := workloadNamed(t, "tcp-open")
	s := buildSchedule(w, 3, "window", 2*time.Second)
	n := len(s.offset)
	if want := w.rate * 2; float64(n) < 0.95*want || float64(n) > 1.05*want {
		t.Errorf("%d arrivals in 2s at %v ops/s", n, w.rate)
	}
	reads := 0
	for i := range s.offset {
		if i > 0 && s.offset[i] < s.offset[i-1] {
			t.Fatalf("arrival %d is before arrival %d", i, i-1)
		}
		if !s.write[i] {
			reads++
		}
		if int(s.key[i]) >= w.keys || int(s.val[i]) >= len(s.values) {
			t.Fatalf("arrival %d indexes outside the key or value set", i)
		}
	}
	if frac := float64(reads) / float64(n); frac < w.readFrac-0.03 || frac > w.readFrac+0.03 {
		t.Errorf("read share %.3f, want about %.2f", frac, w.readFrac)
	}
	for _, v := range s.values {
		if len(v) != w.valueBytes {
			t.Fatalf("value of %d bytes, want %d", len(v), w.valueBytes)
		}
	}
}
