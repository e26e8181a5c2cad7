// Command regclient drives a live register cluster (a fleet of
// cmd/regserver processes) through a mixed read/write workload over real
// TCP, reports throughput and latency, and checks the atomicity of the
// history it observed. It runs on the public fastreg.Open API: one store
// with the WithTCP backend, session handles for every writer and reader.
//
// The cluster shape flags must match the servers' — the shape, protocol
// and operational flags (-evict-ttl, -capture, …) are the shared
// internal/cliflags surface, identical to regserver's. This process
// hosts writers w_1..w_W and readers r_1..r_R, all running concurrently,
// each issuing its ops back-to-back (closed loop) over -keys keys.
//
// Usage:
//
//	regclient -cluster :7001,:7002,:7003 [-t 1] [-writers 4] [-readers 4]
//	          [-writes 200] [-reads 200] [-keys 16] [-valuesize 64]
//	          [-timeout 5s] [-protocol W2R2] [-check]
//
// The in-memory atomicity verdict covers only operations this process
// issued, because real-time order across processes is not observable.
// With -capture the story changes: every process appends its trace log
// to the capture directory, and the post-run check merges ALL logs found
// there (this run's other clients, the servers', prior runs') through
// internal/audit — one binding multi-process verdict, the same check
// `regaudit check DIR` runs offline.
//
// A multi-process run must partition the client identities: -wbase/-wn
// and -rbase/-rn select which of the shape's writers and readers this
// process drives (e.g. two processes on a W=4 R=4 shape run with
// "-wbase 0 -wn 2 -rbase 0 -rn 2" and "-wbase 2 -rbase 2"). Two
// processes driving the same identity corrupt the protocols' per-writer
// state — the merge detects and flags it, but the run is wasted.
//
// Keys default to a unique per-run prefix: the checker assumes keys
// start unwritten, and without capture, reads of a previous run's values
// would be flagged as read-from-nowhere. An explicit -keyprefix plus
// -capture upgrades that caveat into a real cross-run check: the prior
// runs' trace logs in the capture directory join the merge, so their
// writes are visible to the checker instead of advisory noise.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"fastreg"
	"fastreg/internal/atomicity"
	"fastreg/internal/audit"
	"fastreg/internal/cliflags"
	"fastreg/internal/register"
)

func main() {
	shared := cliflags.Register(flag.CommandLine)
	var (
		writes     = flag.Int("writes", 200, "writes per writer")
		reads      = flag.Int("reads", 200, "reads per reader")
		nkeys      = flag.Int("keys", 16, "number of distinct keys")
		keyPrefix  = flag.String("keyprefix", "", "key name prefix (default: unique per run — without -capture, reusing keys across runs yields spurious read-from-nowhere verdicts; with -capture the merge resolves prior runs' writes)")
		valueSize  = flag.Int("valuesize", 64, "bytes per written value")
		timeout    = flag.Duration("timeout", 5*time.Second, "per-operation deadline (0 = none)")
		check      = flag.Bool("check", true, "run the atomicity checker over the observed history (merged across processes when -capture is set)")
		wbase      = flag.Int("wbase", 0, "writer identity offset: this process drives writers wbase+1..wbase+wn (partition identities across concurrent client processes)")
		wn         = flag.Int("wn", 0, "writer identities this process drives (0 = all above wbase)")
		rbase      = flag.Int("rbase", 0, "reader identity offset; see -wbase")
		rn         = flag.Int("rn", 0, "reader identities this process drives (0 = all above rbase)")
		sequential = flag.Bool("sequential", false, "complete every write before the first read starts (deterministic phases; default is full write/read concurrency)")
	)
	flag.Parse()

	stopProfiles, err := shared.StartProfiles()
	if err != nil {
		fatal(err)
	}
	defer stopProfiles()

	addrs := shared.Addrs()
	if addrs == nil {
		fatal(fmt.Errorf("need -cluster"))
	}
	qcfg, err := shared.Config()
	if err != nil {
		fatal(err)
	}
	cfg := fastreg.Config{Servers: qcfg.S, MaxCrashes: qcfg.T, Readers: qcfg.R, Writers: qcfg.W}
	store, err := fastreg.Open(cfg, fastreg.Protocol(shared.Protocol), shared.StoreOptions()...)
	if err != nil {
		fatal(err)
	}
	defer store.Close()
	stopDebug, err := shared.ServeDebug(store.DebugHandler())
	if err != nil {
		fatal(err)
	}
	defer stopDebug()
	if n := store.Connect(); n < qcfg.ReplyQuorum() {
		fatal(fmt.Errorf("only %d of %d servers reachable (need %d)", n, qcfg.S, qcfg.ReplyQuorum()))
	}

	prefix := *keyPrefix
	if prefix == "" {
		prefix = fmt.Sprintf("run-%d-%d", os.Getpid(), time.Now().UnixNano()%1e6)
	}
	key := func(i int) string { return fmt.Sprintf("%s/key-%03d", prefix, i%*nkeys) }
	value := strings.Repeat("x", *valueSize)
	opCtx := func() (context.Context, context.CancelFunc) {
		if *timeout <= 0 {
			return context.Background(), func() {}
		}
		return context.WithTimeout(context.Background(), *timeout)
	}

	var (
		mu         sync.Mutex
		wLat, rLat []time.Duration
		errs       []error
	)
	record := func(lat *[]time.Duration, d time.Duration, err error) {
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			errs = append(errs, err)
			return
		}
		*lat = append(*lat, d)
	}

	// Identity ranges: a multi-process run gives each process a disjoint
	// slice of the shape's writers and readers.
	wlo, whi, err := idRange(*wbase, *wn, cfg.Writers, "writer")
	if err != nil {
		fatal(err)
	}
	rlo, rhi, err := idRange(*rbase, *rn, cfg.Readers, "reader")
	if err != nil {
		fatal(err)
	}

	start := time.Now()
	var wg sync.WaitGroup
	runWriters := func() {
		for w := wlo; w <= whi; w++ {
			h, err := store.Writer(w)
			if err != nil {
				fatal(err)
			}
			wg.Add(1)
			go func(w int, h *fastreg.Writer) {
				defer wg.Done()
				for i := 0; i < *writes; i++ {
					ctx, cancel := opCtx()
					t0 := time.Now()
					_, err := h.Put(ctx, key(w*7+i), value)
					record(&wLat, time.Since(t0), err)
					cancel()
				}
			}(w, h)
		}
	}
	runReaders := func() {
		for r := rlo; r <= rhi; r++ {
			h, err := store.Reader(r)
			if err != nil {
				fatal(err)
			}
			wg.Add(1)
			go func(r int, h *fastreg.Reader) {
				defer wg.Done()
				for i := 0; i < *reads; i++ {
					ctx, cancel := opCtx()
					t0 := time.Now()
					_, _, _, err := h.Get(ctx, key(r*13+i))
					record(&rLat, time.Since(t0), err)
					cancel()
				}
			}(r, h)
		}
	}
	runWriters()
	if *sequential {
		wg.Wait()
	}
	runReaders()
	wg.Wait()
	elapsed := time.Since(start)

	total := len(wLat) + len(rLat)
	fmt.Printf("%s against %d servers (%s): %d ops in %v (%.0f ops/sec), %d errors\n",
		shared.Protocol, cfg.Servers, qcfg, total, elapsed.Round(time.Millisecond),
		float64(total)/elapsed.Seconds(), len(errs))
	fmt.Printf("  writes: %s\n", latencyLine(wLat))
	fmt.Printf("  reads:  %s\n", latencyLine(rLat))
	if st := store.Stats(); st.Enabled {
		fmt.Printf("  store:  ops p50=%v p95=%v p99=%v retries=%d failed=%d slow=%d\n",
			st.Ops.P50.Round(time.Microsecond), st.Ops.P95.Round(time.Microsecond),
			st.Ops.P99.Round(time.Microsecond), st.Retries, st.OpsFailed, st.SlowOps)
	}
	for i, err := range errs {
		if i == 5 {
			fmt.Printf("  ... and %d more errors\n", len(errs)-5)
			break
		}
		fmt.Println("  error:", err)
	}

	if *check {
		// Timed-out operations don't weaken the verdict: the history
		// records them as failed, and the checker models failed writes as
		// OPTIONAL ops (they may or may not have taken effect — see
		// internal/atomicity), so a later read of a timed-out write's
		// value linearizes it instead of producing a spurious
		// read-from-nowhere. A violation in a run with timeouts is
		// therefore just as binding as in a clean run.
		timeouts := 0
		for _, err := range errs {
			if errors.Is(err, register.ErrTimeout) {
				timeouts++
			}
		}
		if shared.CaptureDir != "" {
			// Merged multi-process check: flush this process's trace log
			// (Close is idempotent; the deferred one becomes a no-op) and
			// check every log in the capture directory jointly — other
			// client processes, the replicas' logs, and prior runs'.
			store.Close()
			stopProfiles()
			os.Exit(mergedCheck(shared.CaptureDir, timeouts))
		}
		histories := store.Backend().Histories()
		keys := make([]string, 0, len(histories))
		for k := range histories {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		ops, violated := 0, false
		for _, k := range keys {
			h := histories[k]
			res := atomicity.Check(h)
			ops += len(h.Completed())
			if !res.Atomic {
				violated = true
				fmt.Printf("  ATOMICITY VIOLATION on %s: %s\n", k, res)
			}
		}
		if violated {
			if *keyPrefix != "" {
				// The one caveat the in-memory checker genuinely cannot
				// model: an explicit -keyprefix may reuse key names across
				// runs, and reads of another run's writes look like
				// violations here (the checker assumes keys start
				// unwritten). The verdict still exits 2 — a fresh prefix
				// makes it as binding as a default run — but flag the
				// possibility for the operator. Running with -capture
				// removes the caveat entirely: the merged check sees the
				// earlier runs' trace logs, so their writes resolve
				// instead of reading "from nowhere".
				fmt.Printf("  note: -keyprefix %q was set explicitly — if it reuses keys from an earlier run, the violations above may be artifacts of that reuse (add -capture to both runs for a real cross-run check)\n", *keyPrefix)
			}
			stopProfiles()
			os.Exit(2)
		}
		fmt.Printf("  checker: atomic over %d operations on %d keys (%d timed out, modeled as optional)\n", ops, len(keys), timeouts)
	}
}

// idRange resolves one -{w,r}base/-{w,r}n pair against the cluster
// shape's total, returning the 1-based inclusive identity range this
// process drives.
func idRange(base, n, total int, role string) (lo, hi int, err error) {
	if base < 0 || base >= total {
		return 0, 0, fmt.Errorf("-%cbase %d out of range [0,%d)", role[0], base, total)
	}
	if n == 0 {
		n = total - base
	}
	if n < 0 || base+n > total {
		return 0, 0, fmt.Errorf("-%cn %d with -%cbase %d exceeds the shape's %d %ss", role[0], n, role[0], base, total, role)
	}
	return base + 1, base + n, nil
}

// mergedCheck merges every trace log in dir (this process's included)
// and replays the joint multi-process history through the atomicity
// checker — regaudit's check, run inline. Returns the process exit code.
func mergedCheck(dir string, timeouts int) int {
	paths, err := filepath.Glob(filepath.Join(dir, "*"+audit.TraceExt))
	if err != nil || len(paths) == 0 {
		fmt.Fprintf(os.Stderr, "regclient: no trace logs in %s (err: %v)\n", dir, err)
		return 1
	}
	m, err := audit.MergeFiles(paths...)
	if err != nil {
		fmt.Fprintln(os.Stderr, "regclient:", err)
		return 1
	}
	fmt.Printf("  merged check: %s from %s\n", m.Coverage(), dir)
	for _, w := range m.Warnings {
		fmt.Printf("  merge warning: %s\n", w)
	}
	rep := m.Check()
	for _, line := range strings.Split(strings.TrimRight(rep.Summary(), "\n"), "\n") {
		fmt.Println("  " + line)
	}
	if timeouts > 0 {
		fmt.Printf("  (%d local ops timed out, modeled as optional)\n", timeouts)
	}
	if !rep.Clean {
		return 2
	}
	return 0
}

func latencyLine(lats []time.Duration) string {
	if len(lats) == 0 {
		return "none"
	}
	sorted := append([]time.Duration(nil), lats...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var sum time.Duration
	for _, d := range sorted {
		sum += d
	}
	pct := func(p float64) time.Duration {
		i := int(p * float64(len(sorted)-1))
		return sorted[i]
	}
	return fmt.Sprintf("n=%d mean=%v p50=%v p99=%v max=%v",
		len(sorted), (sum / time.Duration(len(sorted))).Round(time.Microsecond),
		pct(0.50).Round(time.Microsecond), pct(0.99).Round(time.Microsecond),
		sorted[len(sorted)-1].Round(time.Microsecond))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "regclient:", err)
	os.Exit(1)
}
