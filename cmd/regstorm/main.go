// Command regstorm runs one declarative storm scenario end to end:
// it drives a replica fleet with internal/loadgen's open-loop workload
// and finishes by merging every capture log and replaying the atomicity
// checker over the joint history — the process exit code IS the
// atomicity verdict, so a scenario run is a pass/fail test of the store
// under the scenario's faults.
//
// By default regstorm hosts the fleet itself: real loopback TCP behind
// internal/faultnet's fault-injecting listeners. With -cluster it drives
// a deployed fleet of cmd/regserver processes instead; the spec's
// fleet.servers must match the address count, and what needs a hosted
// fleet (faults, fleet.byzantine, epoch_ms) is refused. Several regstorm
// processes can drive one fleet: give each its own
// workload.writers/readers identities and the same workload.key_prefix to
// contend on the same keys, and point every process's -capture (and the
// replicas') at one directory — each run's verdict, like `regaudit check
// DIR`, merges every log found there.
//
// Usage:
//
//	regstorm -spec scenarios/storm-smoke.json [-seed N] [-capture DIR]
//	         [-cluster host:port,...] [diagnostics flags]
//
// Exit codes follow regaudit check: 0 when every key's merged history
// checks atomic, 2 on a violation, 1 on any operational error —
// including a -cluster of which fewer than a reply quorum answers. The
// spec format is cmd/regstorm's Spec (see spec.go and scenarios/*.json);
// -seed overrides the spec's seed, and everything random — workload
// keys, arrival times, fault jitter and probability draws — flows from
// that one value, so a run prints its schedule and a same-seed rerun
// reproduces it line for line.
//
// Byzantine scenarios put internal/byzantine on the wire: the spec's
// byzantine count wraps that many replicas in the lying server, and
// vouched_reads arms the client-side filter (fastreg.WithVouchedReads).
// The verdict is told which replicas lie (regaudit -untrusted): their
// logs convict them of stale serves, one "sN convicted" line each, but
// are no evidence for client-visible atomicity. Within the filter's
// budget (liars <= vouched_reads <= t) no reader sees a forged value and
// the run exits 0; past it the forged value reaches a reader, the merged
// history indicts the run — the checker's read-from-nowhere violation —
// and more liars are convicted than t, with exit 2.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"fastreg"
	"fastreg/internal/audit"
	"fastreg/internal/cliflags"
	"fastreg/internal/faultnet"
	"fastreg/internal/loadgen"
)

func main() {
	os.Exit(run())
}

// run is main minus os.Exit, so defers fire before the code is decided.
func run() int {
	var (
		specPath = flag.String("spec", "", "scenario spec file (required; see scenarios/*.json)")
		capDir   = flag.String("capture", "", "directory for the run's trace logs (default: a temp dir, removed after a clean verdict)")
		cluster  = flag.String("cluster", "", "comma-separated host:port list of a deployed regserver fleet to drive instead of hosting one (its length must equal fleet.servers)")
		// Every random draw in internal/loadgen and internal/faultnet
		// flows from this one value via deterministic sub-seeding.
		seedFlag = flag.Int64("seed", 1, "deterministic seed for every random choice (workload keys/arrivals, fault schedules); the same seed replays the same run")
	)
	diag := cliflags.RegisterDiag(flag.CommandLine)
	flag.Parse()
	if *specPath == "" {
		fmt.Fprintln(os.Stderr, "regstorm: -spec is required")
		return 1
	}
	var addrs []string
	if *cluster != "" {
		addrs = strings.Split(*cluster, ",")
	}
	spec, err := LoadSpec(*specPath, addrs)
	if err != nil {
		return fail(err)
	}
	// The spec's seed is the default; an explicit -seed wins so one
	// scenario file covers a whole family of reproducible runs.
	seed := spec.Seed
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "seed" {
			seed = *seedFlag
		}
	})
	if seed == 0 {
		seed = 1
	}

	stopProfiles, err := diag.StartProfiles()
	if err != nil {
		return fail(err)
	}
	defer stopProfiles()

	cfg, err := spec.QuorumConfig()
	if err != nil {
		return fail(err)
	}
	dir := *capDir
	ephemeral := dir == ""
	if ephemeral {
		if dir, err = os.MkdirTemp("", "regstorm-"+spec.Name+"-*"); err != nil {
			return fail(err)
		}
	} else if err := os.MkdirAll(dir, 0o755); err != nil {
		return fail(err)
	}

	plan := faultnet.NewPlan(seed, spec.Rules()...)
	where := "tcp"
	if addrs != nil {
		where = fmt.Sprintf("cluster %s (keys %s*)", *cluster, spec.Workload.KeyPrefix)
	}
	printSchedule(spec, cfg, plan, seed, where)

	opts := []fastreg.Option{fastreg.WithCapture(dir)}
	var flt *fleet
	if addrs != nil {
		opts = append(opts, fastreg.WithTCP(addrs...))
	} else {
		if flt, err = startFleet(spec, cfg, plan, dir); err != nil {
			return fail(err)
		}
		opts = append(opts, fastreg.WithTCP(flt.addrs...))
	}
	if spec.VouchedReads > 0 {
		opts = append(opts, fastreg.WithVouchedReads(spec.VouchedReads))
	}
	if spec.EpochMS > 0 {
		opts = append(opts, fastreg.WithAuditEpochs(ms(spec.EpochMS)))
	}
	if spec.RotateBytes > 0 {
		opts = append(opts, fastreg.WithCaptureRotation(spec.RotateBytes))
	}
	if diag.DebugAddr != "" {
		opts = append(opts, fastreg.WithMetrics())
	}
	if diag.SlowOp > 0 {
		opts = append(opts, fastreg.WithSlowOpTrace(diag.SlowOp))
	}
	fcfg := fastreg.Config{Servers: cfg.S, MaxCrashes: cfg.T, Readers: cfg.R, Writers: cfg.W}
	store, err := fastreg.Open(fcfg, fastreg.Protocol(spec.Protocol), opts...)
	if err != nil {
		if flt != nil {
			flt.Close()
		}
		return fail(err)
	}
	// shutdown stops the store, then the hosted replicas, whose capture
	// errors it returns: a truncated log downgrades the verdict.
	shutdown := func() error {
		store.Close()
		if flt != nil {
			return flt.Close()
		}
		return nil
	}
	if spec.EpochMS > 0 { // refused with -cluster, so the fleet is hosted
		// The replica logs live in this process, so the coordinator can
		// stamp them directly when each epoch's weight comes home.
		if err := store.OnAuditEpoch(flt.StampEpoch); err != nil {
			shutdown()
			return fail(err)
		}
	}
	if addrs != nil {
		// A wrong address fails here in one dial, not as op timeouts.
		if n := store.Connect(); n < cfg.ReplyQuorum() {
			shutdown()
			return fail(fmt.Errorf("only %d of %d replicas reachable (need %d)", n, cfg.S, cfg.ReplyQuorum()))
		}
	}
	stopDebug, err := diag.ServeDebug(store.DebugHandler())
	if err != nil {
		shutdown()
		return fail(err)
	}
	defer stopDebug()

	// Clock zero is now: fault windows are offsets into the workload,
	// not into connection setup.
	plan.Start()
	rep, err := loadgen.Run(context.Background(), store, spec.LoadConfig(seed))
	if cerr := shutdown(); cerr != nil && err == nil {
		err = cerr
	}
	if err != nil {
		return fail(err)
	}
	fmt.Printf("regstorm: workload %s\n", rep)

	code, err := verdict(dir, spec.liars())
	if err != nil {
		return fail(err)
	}
	if code == 0 && ephemeral {
		os.RemoveAll(dir)
	} else {
		fmt.Printf("regstorm: trace logs kept in %s\n", dir)
	}
	return code
}

// printSchedule emits the run's deterministic preamble: everything a
// same-seed rerun must reproduce byte for byte (rules, windows, and the
// derived per-direction seeds), so two runs can be diffed on their
// "schedule:" lines alone.
func printSchedule(spec *Spec, cfg interface{ String() string }, plan *faultnet.Plan, seed int64, where string) {
	fmt.Printf("regstorm: spec %s — %s %s over %s, seed %d\n",
		spec.Name, spec.Protocol, cfg, where, seed)
	if spec.Fleet.Byzantine > 0 {
		fmt.Printf("regstorm: %d byzantine replica(s) (the last of s1..s%d), vouched reads budget %d\n",
			spec.Fleet.Byzantine, spec.Fleet.Servers, spec.VouchedReads)
	}
	dirs := map[string]bool{}
	for i, r := range plan.Rules() {
		end := "∞"
		if r.Window.End != 0 {
			end = r.Window.End.String()
		}
		f := r.Fault
		detail := ""
		switch {
		case f.Delay != 0 || f.Jitter != 0:
			detail = fmt.Sprintf(" %v+[0,%v)", f.Delay, f.Jitter)
		case f.BytesPerSec != 0:
			detail = fmt.Sprintf(" %dB/s", f.BytesPerSec)
		}
		if f.Prob != 0 {
			detail += fmt.Sprintf(" p=%g", f.Prob)
		}
		fmt.Printf("schedule: rule %d: %s->%s [%v,%s) %s%s\n", i+1, r.From, r.To, r.Window.Start, end, f.Kind, detail)
		if r.From != "*" && r.To != "*" {
			dirs[r.From+"->"+r.To] = true
		}
	}
	var keys []string
	for d := range dirs {
		keys = append(keys, d)
	}
	sort.Strings(keys)
	for _, d := range keys {
		parts := splitDir(d)
		fmt.Printf("schedule: dirseed %s#0 = %d\n", d, plan.DirSeed(parts[0], parts[1], 0))
	}
}

func splitDir(d string) [2]string {
	for i := 0; i+1 < len(d); i++ {
		if d[i] == '-' && d[i+1] == '>' {
			return [2]string{d[:i], d[i+2:]}
		}
	}
	return [2]string{d, ""}
}

// verdict merges every trace log the run left and replays the checker —
// regaudit check's machinery and exit convention, in process, with the
// spec's liars declared untrusted.
func verdict(dir string, liars []int) (int, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*"+audit.TraceExt))
	if err != nil {
		return 1, err
	}
	sort.Strings(paths)
	if len(paths) == 0 {
		return 1, fmt.Errorf("no trace logs in %s", dir)
	}
	m, err := audit.MergeFilesUntrusted(liars, paths...)
	if err != nil {
		return 1, err
	}
	coverage := "FULL — verdicts binding"
	if !m.FullCoverage {
		coverage = "PARTIAL — verdicts advisory"
	}
	fmt.Printf("regstorm: merged %s, coverage %s\n", m.Coverage(), coverage)
	for _, w := range m.Warnings {
		fmt.Printf("regstorm: warning: %s\n", w)
	}
	rep := m.Check()
	fmt.Print(rep.Summary())
	if !rep.Clean {
		return 2, nil
	}
	return 0, nil
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "regstorm:", err)
	return 1
}
