// Command regaudit is the operator surface of the capture/replay audit
// subsystem: it reads the per-process trace logs a captured run leaves
// behind (regserver -capture, regstorm -capture, fastreg.WithCapture)
// and runs the atomicity checker over the joint multi-client history —
// the only way to verify a run that spans several client processes,
// where no single process's clock orders all operations. merge/check and
// follow are two drivers of one ingest (internal/audit): the same header
// check, identity-collision guard, replica-evidence synthesis and
// coverage rule decide every verdict, offline or live.
//
// Usage:
//
//	regaudit merge [flags] DIR|LOG...   inspect the merged history (per
//	                                    key, with each operation's
//	                                    originating process)
//	regaudit check [flags] DIR|LOG...   merge and verify; exit 0 when
//	                                    every key checks atomic, 2 on a
//	                                    violation, 1 on a merge error
//	regaudit follow [flags] DIR|LOG...  tail a LIVE capture directory and
//	                                    print one verdict per closed
//	                                    audit epoch; exit 0 clean, 2 on
//	                                    any violation, 1 on error or too
//	                                    few epochs (-min-epochs)
//
// check prints a per-key summary table (operations, clock domains,
// pending/failed write counts) before the verdict lines. The flags are
// the shared diagnostics surface (-debug-addr, -cpuprofile, …), so an
// operator can profile a large merge like any other fleet process.
//
// Arguments are .trlog files or directories (every *.trlog inside is
// taken). Any subset of a run's logs merges — S−t of S replica logs and
// a surviving client log are still checkable — but verdicts are binding
// only with full coverage: all S replica logs intact and client
// identities partitioned, the condition under which every value the
// fleet ever served has a visible origin. regaudit prints exactly what
// is missing otherwise.
//
// follow is the streaming mode: the fleet must run WithAuditEpochs, so
// the weight-throwing coordinator stamps epoch boundaries into every
// log. follow tails the rotating logs (segments included), buckets
// records by their epoch tags, and emits a windowed verdict the moment
// each epoch's window closes in every log — memory stays O(window), and
// the verdicts agree with an offline `regaudit check` over the same
// logs. merge and check are the same ingest with every record in one
// bucket, untagged records included. A followed log from another
// deployment is refused with a warning, and a violated epoch is marked
// "not binding" when replica logs are missing, identities collided or
// its window dropped stragglers or untagged records (the verdict line
// counts them). Directories are rescanned each poll, so logs that appear
// late are picked up; -idle-exit drains the trailing epochs and exits
// once the logs stop growing.
//
// Neither mode trusts what it cannot see: operations from different
// processes are never real-time ordered (each capture log is its own
// clock domain), writes that only replicas witnessed are replayed as
// optional pending operations, and duplicate replica records from
// retried rounds are folded away. See internal/audit for the model and
// why verdicts under it are binding.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"fastreg/internal/audit"
	"fastreg/internal/cliflags"
	"fastreg/internal/obs"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	cmd := os.Args[1]
	if cmd != "merge" && cmd != "check" && cmd != "follow" {
		usage()
	}
	// Flags sit between the subcommand and the paths, the same
	// diagnostics surface as every other fleet binary — -debug-addr
	// keeps pprof reachable during a large merge.
	fs := flag.NewFlagSet("regaudit "+cmd, flag.ExitOnError)
	diag := cliflags.RegisterDiag(fs)
	var minEpochs int
	var idleExit, pollEvery time.Duration
	if cmd == "follow" {
		fs.IntVar(&minEpochs, "min-epochs", 1, "exit 1 unless at least this many epochs finalize")
		fs.DurationVar(&idleExit, "idle-exit", 3*time.Second, "drain and exit after the logs stop growing for this long (0 = follow forever)")
		fs.DurationVar(&pollEvery, "interval", 200*time.Millisecond, "poll interval")
	}
	fs.Usage = usage
	fs.Parse(os.Args[2:])
	if fs.NArg() == 0 {
		usage()
	}

	stopProfiles, err := diag.StartProfiles()
	if err != nil {
		fatal(err)
	}
	defer stopProfiles()
	reg := diag.Registry()
	stopDebug, err := diag.ServeDebug(obs.Handler(reg, nil))
	if err != nil {
		fatal(err)
	}
	defer stopDebug()

	if cmd == "follow" {
		code := follow(reg, fs.Args(), minEpochs, idleExit, pollEvery)
		stopDebug()
		stopProfiles()
		os.Exit(code)
	}

	paths, err := expand(fs.Args())
	if err != nil {
		fatal(err)
	}
	m, err := audit.MergeFiles(paths...)
	if err != nil {
		fatal(err)
	}
	reg.Counter("audit.logs").Add(int64(len(m.Files)))
	reg.Counter("audit.keys").Add(int64(len(m.Keys)))
	printHeader(m)
	switch cmd {
	case "merge":
		printMerge(m)
	case "check":
		rep := m.Check()
		printKeyTable(rep)
		fmt.Print(rep.Summary())
		if !rep.Clean {
			stopDebug()
			stopProfiles()
			os.Exit(2)
		}
	}
}

// follow tails the given capture logs (directories rescanned each poll)
// and prints one verdict line per closed audit epoch, live. Once the
// logs stop growing for -idle-exit it drains the trailing epochs and
// exits: 0 when every epoch was clean and at least -min-epochs
// finalized, 2 on any violation or stale serve, 1 otherwise.
func follow(reg *obs.Registry, args []string, minEpochs int, idleExit, pollEvery time.Duration) int {
	f := audit.NewFollower(audit.FollowOptions{
		Obs: reg,
		OnVerdict: func(v audit.EpochVerdict) {
			fmt.Println(v)
			for _, kv := range v.Violations {
				fmt.Printf("  key %q: %s\n", kv.Key, kv.Result)
				for _, n := range kv.Notes {
					fmt.Printf("    note: %s\n", n)
				}
			}
			for _, s := range v.Stale {
				fmt.Printf("  replica-stale: %s\n", s)
			}
		},
	})
	defer f.Close()
	warned := 0
	flushWarnings := func() {
		for ; warned < len(f.Warnings); warned++ {
			fmt.Fprintln(os.Stderr, "regaudit: warning:", f.Warnings[warned])
		}
	}
	lastSize := int64(-1)
	idleSince := time.Now()
	for {
		for _, a := range args {
			// A named path may not exist yet (the fleet is still coming
			// up) — keep retrying rather than failing the follow.
			st, err := os.Stat(a)
			if err != nil {
				continue
			}
			if !st.IsDir() {
				f.AddLog(a)
				continue
			}
			inside, _ := filepath.Glob(filepath.Join(a, "*"+audit.TraceExt))
			sort.Strings(inside)
			for _, p := range inside {
				f.AddLog(p)
			}
		}
		f.Poll()
		flushWarnings()
		if size := followedBytes(args); size != lastSize {
			lastSize = size
			idleSince = time.Now()
		}
		if idleExit > 0 && time.Since(idleSince) >= idleExit {
			break
		}
		time.Sleep(pollEvery)
	}
	f.Poll()
	f.Drain()
	flushWarnings()
	for _, s := range f.PendingStale() {
		fmt.Printf("replica-stale: %s\n", s)
	}
	total := f.CleanEpochs + f.ViolatedEpochs
	fmt.Printf("follow: %d epoch(s) finalized (%d clean, %d violated), %d completed ops\n",
		total, f.CleanEpochs, f.ViolatedEpochs, f.TotalOps)
	switch {
	case f.ViolatedEpochs > 0 || len(f.PendingStale()) > 0:
		return 2
	case total < minEpochs:
		fmt.Fprintf(os.Stderr, "regaudit: only %d epoch(s) finalized, -min-epochs wants %d\n", total, minEpochs)
		return 1
	}
	return 0
}

// followedBytes sums the on-disk size of every trace log (segments
// included) under the followed paths — the follow loop's idle signal.
func followedBytes(args []string) int64 {
	var total int64
	for _, a := range args {
		st, err := os.Stat(a)
		if err != nil {
			continue
		}
		if !st.IsDir() {
			for _, p := range audit.Segments(a) {
				if fi, err := os.Stat(p); err == nil {
					total += fi.Size()
				}
			}
			continue
		}
		inside, _ := filepath.Glob(filepath.Join(a, "*"+audit.TraceExt+"*"))
		for _, p := range inside {
			if fi, err := os.Stat(p); err == nil {
				total += fi.Size()
			}
		}
	}
	return total
}

// printKeyTable renders the per-key summary — how much evidence each
// verdict rests on (operation count, originating processes, optional
// writes) — before the verdict lines.
func printKeyTable(rep *audit.Report) {
	if len(rep.Verdicts) == 0 {
		return
	}
	tw := tabwriter.NewWriter(os.Stdout, 2, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "KEY\tOPS\tDOMAINS\tPENDING\tFAILED\tVERDICT")
	for _, v := range rep.Verdicts {
		status := "atomic"
		if !v.Result.Atomic {
			status = "VIOLATED"
		}
		fmt.Fprintf(tw, "%q\t%d\t%d\t%d\t%d\t%s\n",
			v.Key, v.Completed, v.Domains, v.Pending, v.Failed, status)
	}
	tw.Flush()
}

// expand resolves each argument to trace logs: directories contribute
// every *.trlog inside, files pass through.
func expand(args []string) ([]string, error) {
	var paths []string
	for _, a := range args {
		st, err := os.Stat(a)
		if err != nil {
			return nil, err
		}
		if !st.IsDir() {
			paths = append(paths, a)
			continue
		}
		inside, err := filepath.Glob(filepath.Join(a, "*"+audit.TraceExt))
		if err != nil {
			return nil, err
		}
		if len(inside) == 0 {
			return nil, fmt.Errorf("no %s files in %s", audit.TraceExt, a)
		}
		sort.Strings(inside)
		paths = append(paths, inside...)
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no trace logs given")
	}
	return paths, nil
}

func printHeader(m *audit.Merge) {
	fmt.Printf("regaudit: %s — %s %s\n", m.Coverage(), m.Protocol, m.Shape)
	if m.Synthesized > 0 {
		fmt.Printf("  %d write(s) known only from replica evidence, replayed as optional\n", m.Synthesized)
	}
	if m.DuplicateHandles > 0 {
		fmt.Printf("  %d duplicate replica record(s) from retried rounds folded\n", m.DuplicateHandles)
	}
	for _, w := range m.Warnings {
		fmt.Printf("  warning: %s\n", w)
	}
}

func printMerge(m *audit.Merge) {
	for _, k := range m.KeyNames() {
		kh := m.Keys[k]
		h := kh.History()
		fmt.Printf("key %q — %d ops\n", k, len(h.Ops))
		for _, op := range h.Ops {
			fmt.Printf("  [%s] %s\n", kh.DomainLabel(kh.DomainOf(op)), op)
		}
	}
}

func usage() {
	fmt.Fprint(os.Stderr, strings.TrimLeft(`
usage:
  regaudit merge [flags] DIR|LOG...   print the merged multi-process history
  regaudit check [flags] DIR|LOG...   merge and run the atomicity checker
                                      (exit 0 clean, 2 violated, 1 error)
  regaudit follow [flags] DIR|LOG...  tail a live capture dir, one verdict
                                      per audit epoch (exit 0 clean,
                                      2 violated, 1 error/-min-epochs)
flags (the shared diagnostics surface): -debug-addr, -slow-op,
  -cpuprofile, -memprofile
follow flags: -min-epochs N, -idle-exit D, -interval D
`, "\n"))
	os.Exit(1)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "regaudit:", err)
	os.Exit(1)
}
