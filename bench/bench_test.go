package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"strings"
	"testing"
	"time"

	"fastreg/internal/history"
	"fastreg/internal/types"
)

// reduced shrinks a workload so a whole run fits a unit test: fewer keys
// to preload, a gentler rate, everything else — protocol, shape, loop,
// taxes — as shipped.
func reduced(w workload) workload {
	w.keys = 192
	w.rate /= 4
	return w
}

const testWindow = 0.2 // seconds

// benchmarkFile is BENCHMARK.json as the acceptance driver reads it.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// The rot guard: every workload runs both passes at reduced size, and
// what it emits is exactly what BENCHMARK.json promises, within the
// contract's limits.
func TestEveryWorkloadEmitsWhatBenchmarkJSONNames(t *testing.T) {
	bf := readBenchmarkFile(t)
	if want := []string{"bench"}; !reflect.DeepEqual(bf.Paths, want) {
		t.Errorf("paths %v, want %v", bf.Paths, want)
	}
	if bf.RunSeconds < 1 || bf.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside [1, 60]", bf.RunSeconds)
	}
	if !reflect.DeepEqual(bf.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs from the metric table:\n file %+v\n code %+v", bf.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(bf.PerLayer, perLayer) {
		t.Errorf("per_layer differs from the metric table:\n file %+v\n code %+v", bf.PerLayer, perLayer)
	}
	bounded := boundedWorkloads()
	if len(bf.Workloads) != len(bounded) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d bounded ones in code", len(bf.Workloads), len(bounded))
	}
	for i, w := range bounded {
		if bf.Workloads[i].Name != w.name || bf.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), code has %q (%q)", i, bf.Workloads[i].Name, bf.Workloads[i].Why, w.name, w.why)
		}
	}
	if len(workloads) > 8 || len(endToEnd) > 16 || len(perLayer) > 128 {
		t.Errorf("%d workloads, %d end-to-end, %d per-layer: over the contract's 8 / 16 / 128", len(workloads), len(endToEnd), len(perLayer))
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !name.MatchString(d.Name) || !unit.MatchString(d.Unit) || seen[d.Name] {
			t.Errorf("metric %q (unit %q): bad or repeated name", d.Name, d.Unit)
		}
		seen[d.Name] = true
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %q: better = %q", d.Name, d.Better)
		}
	}
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("metric %q: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}

	opts := fleetOpts{scratch: t.TempDir()}
	for _, w := range workloads {
		if !name.MatchString(w.name) || seen[w.name] || len(w.why) > 200 || strings.Contains(w.why, "\n") {
			t.Errorf("workload %q: bad name or why", w.name)
		}
		seen[w.name] = true
		t.Run(w.name, func(t *testing.T) {
			e2e, err := measure(reduced(w), 1, testWindow, opts)
			if err != nil {
				t.Fatal(err)
			}
			checkRun(t, e2e, endToEnd)
			for _, d := range endToEnd {
				if e2e.Metrics[d.Name].Value == 0 {
					t.Errorf("end-to-end metric %s is 0; the contract wants metrics that never are", d.Name)
				}
			}
			layer, err := layers(reduced(w), 1, 3*testWindow, opts, "")
			if err != nil {
				t.Fatal(err)
			}
			checkRun(t, layer, perLayer)
			wire := layer.Metrics["transport.wire_bytes_per_op"].Value
			if w.tcp && wire == 0 {
				t.Error("a TCP workload reports no wire bytes")
			}
			if !w.tcp && wire != 0 {
				t.Errorf("the in-process workload reports %v wire bytes per op", wire)
			}
			if hasAuditedTwin(w) != (layer.Metrics["epoch.closed"].Value > 0) {
				t.Errorf("audited twin=%v but epoch.closed=%v", hasAuditedTwin(w), layer.Metrics["epoch.closed"].Value)
			}
		})
	}
}

// boundedWorkloads are the ones BENCHMARK.json lists.
func boundedWorkloads() []workload {
	var out []workload
	for _, w := range workloads {
		if !w.unbounded {
			out = append(out, w)
		}
	}
	return out
}

func checkRun(t *testing.T, r *runResult, defs []metricDef) {
	t.Helper()
	if !r.Correct || r.Attempted < 1 || r.Failed != 0 {
		t.Errorf("correct=%v attempted=%d failed=%d\n%s", r.Correct, r.Attempted, r.Failed, strings.Join(r.notes, "\n"))
	}
	if len(r.Metrics) != len(defs) {
		t.Errorf("%d metrics emitted, table has %d", len(r.Metrics), len(defs))
	}
	for _, d := range defs {
		if m, ok := r.Metrics[d.Name]; !ok || m.Unit != d.Unit {
			t.Errorf("metric %s: emitted %+v (present=%v), table says unit %s", d.Name, m, ok, d.Unit)
		}
	}
}

// The gate must fail when the store really is wrong: a fleet whose
// replicas start serving stale reads makes the command exit 2.
func TestStaleFleetFailsTheGate(t *testing.T) {
	ws := []workload{reduced(workloadNamed(t, "tcp-sat"))}
	s := settings{seed: 1, seconds: testWindow, trace: "0", runs: 1, fleet: fleetOpts{scratch: t.TempDir()}}
	if code := execute(ws, s); code != 0 {
		t.Errorf("exit code %d from a sound fleet, want 0", code)
	}
	s.fleet.staleAfter = 3
	if code := execute(ws, s); code != 2 {
		t.Errorf("exit code %d from a stale fleet, want 2", code)
	}
}

func TestSampleCheckHonoursBudgetAndFloor(t *testing.T) {
	// 300 clean keys of 2 ops each, one of them with a read from nowhere.
	val := func(ts int64, data string) types.Value {
		return types.Value{Tag: types.Tag{TS: ts, WID: types.Writer(1)}, Data: data}
	}
	mk := func(bad bool) history.History {
		b := history.NewBuilder().Seq(types.Writer(1), types.OpWrite, val(1, "a"))
		if bad {
			return b.Seq(types.Reader(1), types.OpRead, val(7, "never written")).History()
		}
		return b.Seq(types.Reader(1), types.OpRead, val(1, "a")).History()
	}
	var keys []keyHistory
	for i := 0; i < 300; i++ {
		keys = append(keys, keyHistory{key: string(rune('a'+i%26)) + string(rune('a'+i/26)), h: mk(false)})
	}
	g := sampleCheck(keys, 0)
	if !g.clean || g.keys < minKeysChecked || g.ops != 2*g.keys || g.totalOps != 600 {
		t.Errorf("zero budget: %+v, want clean over at least %d keys", g, minKeysChecked)
	}
	keys[17].h = mk(true)
	if g := sampleCheck(keys, time.Second); g.clean || g.violation == "" {
		t.Errorf("a read from nowhere passed the gate: %+v", g)
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "x", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "y", Better: "higher", Bound: 0.10}
	at := func(median, iqr float64) series {
		return series{Median: median, Q1: median - iqr/2, Q3: median + iqr/2}
	}
	for _, c := range []struct {
		d    metricDef
		a, b series
		want string
	}{
		{lower, at(100, 2), at(105, 2), verdictOK},
		{lower, at(100, 2), at(80, 2), verdictOK}, // better is never worse
		{lower, at(100, 2), at(115, 2), verdictWorse},
		{higher, at(100, 2), at(85, 2), verdictWorse},
		{higher, at(100, 2), at(115, 2), verdictOK},
		{lower, at(100, 30), at(105, 2), verdictUnresolved}, // the runs cannot tell
		{lower, at(100, 30), at(120, 2), verdictUnresolved}, // worse by less than the spread
		{lower, at(100, 30), at(150, 2), verdictWorse},      // worse by more than bound and spread
	} {
		if got, _, _ := judge(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s-better, A %+v, B %+v: %s, want %s", c.d.Better, c.a, c.b, got, c.want)
		}
	}
}

// quartiles must agree with Python's statistics.quantiles(xs, n=4), the
// rule the acceptance driver applies.
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{9, 1, 4, 7, 3, 10, 2, 8, 6, 5})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles of 1..10 = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{3, 1, 2})
	if q1 != 1 || q2 != 2 || q3 != 3 {
		t.Errorf("quartiles of 1..3 = %v %v %v, want 1 2 3", q1, q2, q3)
	}
}

func TestCompareDocsFlagsARegression(t *testing.T) {
	a, b := newDoc(1, 1, 3), newDoc(2, 1, 3)
	for i := 0; i < 3; i++ {
		a.add("tcp-sat", &runResult{Metrics: map[string]metric{"ops_per_s": {Value: 40000 + float64(i), Unit: "1/s"}, "allocs_per_op": {Value: 47, Unit: "count"}}})
		b.add("tcp-sat", &runResult{Metrics: map[string]metric{"ops_per_s": {Value: 20000 + float64(i), Unit: "1/s"}, "allocs_per_op": {Value: 47, Unit: "count"}}})
	}
	var out bytes.Buffer
	if code := compareRuns(a, a, &out); code != 0 {
		t.Errorf("a document compared with itself: exit %d\n%s", code, out.String())
	}
	out.Reset()
	if code := compareRuns(a, b, &out); code != 2 {
		t.Errorf("half the throughput: exit %d, want 2\n%s", code, out.String())
	}
	if !regexp.MustCompile(`tcp-sat\s+ops_per_s\s.*worse`).MatchString(out.String()) ||
		!regexp.MustCompile(`tcp-sat\s+allocs_per_op\s.*ok`).MatchString(out.String()) {
		t.Errorf("rows:\n%s", out.String())
	}
}
