// Command bench is the repository's benchmark: one command that hosts a
// replica fleet in this process behind real loopback TCP, drives five
// seeded workloads from one generator, prints every metric by name with
// its unit, checks atomicity on every run and exits non-zero on a
// violation. BENCHMARK.json at the repository root names the command, the
// workloads and the metrics; README.md in this directory is the glossary.
//
//	bash bench/run.sh --workload tcp-open --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh -runs 3 -out A.json          # every workload, both passes
//	bash bench/run.sh -compare A.json B.json
//
// Exit codes: 0 clean, 1 operational error or more than 0.1% of operations
// failed, 2 atomicity violation (or, under -compare, a "worse" row).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"text/tabwriter"
)

// maxFailedFrac is the share of scheduled operations that may fail
// before a run is an error.
const maxFailedFrac = 0.001

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var (
		workloadArg = fs.String("workload", "all", "workload name, comma-separated names, or all")
		seed        = fs.Int64("seed", 1, "schedule seed; the same seed gives the same inputs")
		seconds     = fs.Float64("seconds", 20, "seconds measured, over all rounds (warm-ups and traced passes scale with it)")
		trace       = fs.String("trace", "both", "0: end-to-end metrics (untraced); 1: per-layer metrics (traced pass and ladder); both")
		runs        = fs.Int("runs", 1, "repeat the selected set this many times")
		outPath     = fs.String("out", "", "write per-run values, medians and quartiles to this file (input to -compare)")
		compare     = fs.Bool("compare", false, "compare two -out documents: bench -compare A.json B.json")
		traceOut    = fs.String("trace-out", "", "write the traced pass's spans to this file (single workload)")
		staleAfter  = fs.Int64("fault-stale-after", 0, "negative test: replicas serve stale reads after this many requests per key; the run must exit 2")
		spinner     = fs.Bool("spin", false, "internal: run as the child that keeps the benchmark's CPU awake")
	)
	if err := fs.Parse(args); err != nil {
		return 1
	}
	if *spinner {
		return spin()
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two documents")
			return 1
		}
		return compareDocs(fs.Arg(0), fs.Arg(1), os.Stdout)
	}
	if *trace != "0" && *trace != "1" && *trace != "both" {
		fmt.Fprintln(os.Stderr, "bench: -trace is 0, 1 or both")
		return 1
	}
	if *seconds <= 0 || *runs < 1 {
		fmt.Fprintln(os.Stderr, "bench: -seconds and -runs must be positive")
		return 1
	}
	ws, err := selectWorkloads(*workloadArg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	// One thread runs everything: generator, client and replicas. On the
	// small shared VMs this is measured on, a second thread turns every
	// hand-over between goroutines into a wake-up of an idle vCPU, which
	// the host serves when it pleases: tcp-sat then spent 41 us of CPU per
	// operation, not 18, and identical runs spread by a third. With one
	// thread a number is the path length of the code, and repeats.
	runtime.GOMAXPROCS(1)
	stopSpinner, awake := keepAwake()
	defer stopSpinner()
	fmt.Fprintln(os.Stderr, "bench:", awake)

	if err := os.MkdirAll(".bench_build", 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	scratch, err := os.MkdirTemp(".bench_build", "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(scratch)
	return execute(ws, settings{seed: *seed, seconds: *seconds, trace: *trace, runs: *runs, outPath: *outPath,
		traceOut: *traceOut, fleet: fleetOpts{scratch: scratch, staleAfter: *staleAfter}})
}

// settings are one invocation's parsed flags.
type settings struct {
	seed              int64
	seconds           float64
	trace             string
	runs              int
	outPath, traceOut string
	fleet             fleetOpts
}

// execute runs the selected workloads and returns the exit code: every
// run's metric table goes to stderr, its result object to stdout.
func execute(ws []workload, s settings) int {
	doc := newDoc(s.seed, s.seconds, s.runs)
	code := 0
	for n := 0; n < s.runs; n++ {
		for _, w := range ws {
			res := &runResult{Correct: true, Metrics: map[string]metric{}}
			if s.trace != "1" {
				r, err := measure(w, s.seed, s.seconds, s.fleet)
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					return 1
				}
				res.merge(r)
			}
			if s.trace != "0" {
				r, err := layers(w, s.seed, s.seconds, s.fleet, s.traceOut)
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					return 1
				}
				res.merge(r)
			}
			report(os.Stderr, w, s.seed, n, res)
			doc.add(w.name, res)
			line, err := json.Marshal(res)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				return 1
			}
			fmt.Println(string(line))
			switch {
			case !res.Correct:
				code = 2
			case float64(res.Failed) > maxFailedFrac*float64(res.Attempted) && code == 0:
				code = 1
			}
		}
	}
	if s.outPath != "" {
		if err := doc.write(s.outPath); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
	}
	return code
}

// merge folds one pass's result into the invocation's: metrics union,
// counts summed, correct only if every pass was.
func (r *runResult) merge(o *runResult) {
	r.Correct = r.Correct && o.Correct
	r.Attempted += o.Attempted
	r.Failed += o.Failed
	for k, v := range o.Metrics {
		r.Metrics[k] = v
	}
	r.notes = append(r.notes, o.notes...)
}

// report prints one run's metrics, by name with unit, for a reader.
func report(out *os.File, w workload, seed int64, n int, r *runResult) {
	fmt.Fprintf(out, "== %s (seed %d, run %d)\n", w.name, seed, n+1)
	for _, note := range r.notes {
		fmt.Fprintln(out, "  ", note)
	}
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	tw := tabwriter.NewWriter(out, 2, 0, 2, ' ', 0)
	for _, name := range names {
		m := r.Metrics[name]
		fmt.Fprintf(tw, "  %s\t%.4f\t%s\n", name, m.Value, m.Unit)
	}
	tw.Flush()
}
