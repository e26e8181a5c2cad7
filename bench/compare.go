package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"runtime"
	"text/tabwriter"
)

// series is one metric of one workload across a document's runs.
type series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	N      int       `json:"n"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
}

// runDoc is what -out writes and -compare reads: every run's value of
// every metric, with medians and quartiles, and the settings that made
// them.
type runDoc struct {
	Schema     string                       `json:"schema"`
	Seed       int64                        `json:"seed"`
	Seconds    float64                      `json:"seconds"`
	Runs       int                          `json:"runs"`
	GoMaxProcs int                          `json:"go_maxprocs"`
	GoVersion  string                       `json:"go_version"`
	Workloads  map[string]map[string]series `json:"workloads"`
}

const docSchema = "fastreg-regbench/v1"

func newDoc(seed int64, seconds float64, runs int) *runDoc {
	return &runDoc{Schema: docSchema, Seed: seed, Seconds: seconds, Runs: runs,
		GoMaxProcs: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(), Workloads: map[string]map[string]series{}}
}

func (d *runDoc) add(workload string, r *runResult) {
	ms := d.Workloads[workload]
	if ms == nil {
		ms = map[string]series{}
		d.Workloads[workload] = ms
	}
	for name, m := range r.Metrics {
		s := ms[name]
		s.Unit = m.Unit
		s.Values = append(s.Values, m.Value)
		s.N = len(s.Values)
		s.Q1, s.Median, s.Q3 = quartiles(s.Values)
		ms[name] = s
	}
}

func (d *runDoc) write(path string) error {
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func readDoc(path string) (*runDoc, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d runDoc
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if d.Schema != docSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, d.Schema, docSchema)
	}
	return &d, nil
}

// Verdicts of one (workload, end-to-end metric) row.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// judge applies one metric's bound to a parent series a and a change
// series b. worsening is the share of a's median by which b's median is
// worse (negative = better); spread is the wider of the two sides'
// interquartile ranges over their medians. A row is worse when the
// worsening exceeds both the bound and the spread, unresolved when the
// spread alone is wider than the bound — the runs cannot tell — and ok
// otherwise.
func judge(d metricDef, a, b series) (verdict string, worsening, spread float64) {
	if a.Median != 0 {
		worsening = (b.Median - a.Median) / a.Median
		if d.Better == "higher" {
			worsening = -worsening
		}
		spread = (a.Q3 - a.Q1) / a.Median
	}
	if b.Median != 0 {
		spread = max(spread, (b.Q3-b.Q1)/b.Median)
	}
	switch {
	case worsening > d.Bound && worsening > spread:
		return verdictWorse, worsening, spread
	case spread > d.Bound:
		return verdictUnresolved, worsening, spread
	}
	return verdictOK, worsening, spread
}

// compareDocs prints one row per (workload, end-to-end metric) present in
// both documents and returns 2 if any row is worse.
func compareDocs(pathA, pathB string, out io.Writer) int {
	a, errA := readDoc(pathA)
	b, errB := readDoc(pathB)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return compareRuns(a, b, out)
}

func compareRuns(a, b *runDoc, out io.Writer) int {
	fmt.Fprintf(out, "A: seed %d, %d run(s) of %gs, GOMAXPROCS %d; B: seed %d, %d run(s) of %gs, GOMAXPROCS %d\n",
		a.Seed, a.Runs, a.Seconds, a.GoMaxProcs, b.Seed, b.Runs, b.Seconds, b.GoMaxProcs)
	tw := tabwriter.NewWriter(out, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "WORKLOAD\tMETRIC\tUNIT\tA median\tB median\tWORSE BY\tSPREAD\tBOUND\tVERDICT")
	code := 0
	for _, w := range workloads {
		ma, mb := a.Workloads[w.name], b.Workloads[w.name]
		for _, d := range endToEnd {
			sa, okA := ma[d.Name]
			sb, okB := mb[d.Name]
			if !okA || !okB {
				continue
			}
			verdict, worsening, spread := judge(d, sa, sb)
			if verdict == verdictWorse {
				code = 2
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4f\t%.4f\t%+.1f%%\t%.1f%%\t%.1f%%\t%s\n",
				w.name, d.Name, d.Unit, sa.Median, sb.Median, 100*worsening, 100*spread, 100*d.Bound, verdict)
		}
	}
	tw.Flush()
	return code
}
