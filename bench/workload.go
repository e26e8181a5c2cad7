package main

import (
	"fmt"
	"strings"

	"fastreg"
)

// workload is one named traffic mix. The five below are the benchmark's
// whole input space. BENCHMARK.json carries the names and reasons of the
// four the acceptance driver runs and bounds; the rot-guard test holds the
// two lists equal.
type workload struct {
	name string
	why  string

	proto fastreg.Protocol
	cfg   fastreg.Config
	tcp   bool // replicas behind loopback TCP; false = netsim.MultiLive

	// open selects the open loop (Poisson arrivals at rate ops/s, readFrac
	// of them reads); otherwise every identity runs a closed loop.
	open     bool
	rate     float64
	readFrac float64

	keys       int
	zipfS      float64 // 0 = uniform
	valueBytes int
	preload    int // writes per key before the warm-up

	// audited turns every optional tax on: capture on client and
	// replicas, audit epochs, log rotation, client and server metrics.
	audited bool

	// family names the schedule stream: workloads of one family get
	// byte-identical schedules from one seed.
	family string

	// unbounded keeps a workload out of BENCHMARK.json: it runs on request
	// and under "all", and no later change is held to its numbers.
	unbounded bool
}

var workloads = []workload{
	{
		name:  "tcp-open",
		why:   "open loop 16k ops/s W2R2 S=3 over loopback TCP, zipf keys: a fleet client at ~35% load, where per-op path length sets p50",
		proto: fastreg.W2R2, cfg: fastreg.Config{Servers: 3, MaxCrashes: 1, Writers: 8, Readers: 8}, tcp: true,
		open: true, rate: 16000, readFrac: 0.7,
		keys: 4096, zipfS: 1.2, valueBytes: 32, preload: 1,
		family: "open",
	},
	{
		name:  "tcp-sat",
		why:   "closed loop, 16 identities, same TCP fleet, uniform keys: saturation, where batching, reply collection and allocation set capacity",
		proto: fastreg.W2R2, cfg: fastreg.Config{Servers: 3, MaxCrashes: 1, Writers: 8, Readers: 8}, tcp: true,
		keys: 4096, valueBytes: 32, preload: 1,
		family: "sat",
	},
	{
		name:  "inproc-sat",
		why:   "tcp-sat's loop on the in-process backend: no codec or sockets, so protocol, keyreg and round engine are the work; wire changes must not move it",
		proto: fastreg.W2R2, cfg: fastreg.Config{Servers: 3, MaxCrashes: 1, Writers: 8, Readers: 8},
		keys: 4096, valueBytes: 32, preload: 1,
		family: "sat",
	},
	{
		name:  "tcp-open-audited",
		why:   "tcp-open's schedule with capture, audit epochs, rotation and metrics all on: the difference to tcp-open is the price of the optional taxes",
		proto: fastreg.W2R2, cfg: fastreg.Config{Servers: 3, MaxCrashes: 1, Writers: 8, Readers: 8}, tcp: true,
		open: true, rate: 16000, readFrac: 0.7,
		keys: 4096, zipfS: 1.2, valueBytes: 32, preload: 1,
		audited: true,
		family:  "open",
		// The acceptance driver's time cap fits four workloads of this run
		// length. The taxes are still priced in its runs: tcp-open's traced
		// run makes a pass as this workload (see layers).
		unbounded: true,
	},
	{
		name:  "tcp-fastread",
		why:   "open loop 3k ops/s W2R1 S=5 R=2, 90% reads, 256 B values: the paper's one-round read with fan-out 5 and valuevector replies (large frames)",
		proto: fastreg.W2R1, cfg: fastreg.Config{Servers: 5, MaxCrashes: 1, Writers: 2, Readers: 2}, tcp: true,
		open: true, rate: 3000, readFrac: 0.9,
		keys: 2048, valueBytes: 256, preload: 4,
		family: "fastread",
	},
}

func workloadNames() []string {
	out := make([]string, len(workloads))
	for i, w := range workloads {
		out[i] = w.name
	}
	return out
}

// selectWorkloads resolves a comma-separated -workload value; "all" or
// empty selects every workload in declaration order.
func selectWorkloads(arg string) ([]workload, error) {
	if arg == "" || arg == "all" {
		return workloads, nil
	}
	var out []workload
	for _, name := range strings.Split(arg, ",") {
		found := false
		for _, w := range workloads {
			if w.name == name {
				out = append(out, w)
				found = true
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(workloadNames(), ", "))
		}
	}
	return out, nil
}

// metricDef is one row of the metric tables: name, unit, direction and —
// for end-to-end metrics — the share of the parent's median by which it
// may worsen. The tables are the single source BENCHMARK.json is held
// equal to.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"ops_per_s", "1/s", "higher", 0.25},
	{"write_p50_us", "us", "lower", 0.25},
	{"read_p50_us", "us", "lower", 0.25},
	{"cpu_us_per_op", "us", "lower", 0.25},
	{"allocs_per_op", "count", "lower", 0.03},
	{"retained_b_per_op", "B", "lower", 0.06},
	{"ok_frac", "frac", "higher", 0.001},
}

var perLayer = []metricDef{
	{Name: "fastreg.put_p95_us", Unit: "us", Better: "lower"},
	{Name: "fastreg.get_p95_us", Unit: "us", Better: "lower"},
	{Name: "fastreg.put_p99_us", Unit: "us", Better: "lower"},
	{Name: "fastreg.get_p99_us", Unit: "us", Better: "lower"},
	{Name: "fastreg.failed_frac", Unit: "frac", Better: "lower"},
	{Name: "fastreg.traced_op_mean_us", Unit: "us", Better: "lower"},
	{Name: "gen.late_p50_us", Unit: "us", Better: "lower"},
	{Name: "gen.late_p95_us", Unit: "us", Better: "lower"},
	{Name: "gen.late_p99_us", Unit: "us", Better: "lower"},
	{Name: "gen.backlog_max", Unit: "count", Better: "lower"},
	{Name: "gen.trace_overhead_us", Unit: "us", Better: "lower"},
	{Name: "transport.client_out_us", Unit: "us", Better: "lower"},
	{Name: "transport.replica_us", Unit: "us", Better: "lower"},
	{Name: "transport.round_gap_us", Unit: "us", Better: "lower"},
	{Name: "transport.client_in_us", Unit: "us", Better: "lower"},
	{Name: "transport.split_mean_sum_us", Unit: "us", Better: "lower"},
	{Name: "transport.envs_per_req_frame", Unit: "count", Better: "higher"},
	{Name: "transport.envs_per_reply_frame", Unit: "count", Better: "higher"},
	{Name: "transport.frames_per_op", Unit: "count", Better: "lower"},
	{Name: "transport.wire_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "transport.read_calls_per_op", Unit: "count", Better: "lower"},
	{Name: "transport.write_calls_per_op", Unit: "count", Better: "lower"},
	{Name: "transport.flush_batch_mean", Unit: "count", Better: "higher"},
	{Name: "transport.chan_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "transport.chan_allocs_per_op", Unit: "count", Better: "lower"},
	{Name: "proto.encode_ns_per_env", Unit: "ns", Better: "lower"},
	{Name: "proto.decode_ns_per_env", Unit: "ns", Better: "lower"},
	{Name: "proto.bytes_per_env", Unit: "B", Better: "lower"},
	{Name: "register.write_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "register.read_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "register.read_reply_entries", Unit: "count", Better: "lower"},
	{Name: "register.read_reply_entries_drift", Unit: "count", Better: "lower"},
	{Name: "keyreg.acquire_ns", Unit: "ns", Better: "lower"},
	{Name: "keyreg.server_get_ns", Unit: "ns", Better: "lower"},
	{Name: "netsim.ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "netsim.wire_ns_per_op", Unit: "ns", Better: "lower"},
	{Name: "audit.capture_ns_per_rec", Unit: "ns", Better: "lower"},
	{Name: "audit.log_bytes_per_op", Unit: "B", Better: "lower"},
	{Name: "audit.merge_s", Unit: "s", Better: "lower"},
	{Name: "audit.follow_ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "audit.follow_violated_epochs", Unit: "count", Better: "lower"},
	{Name: "audit.sample_check_s", Unit: "s", Better: "lower"},
	{Name: "audit.sample_cover_frac", Unit: "frac", Better: "higher"},
	{Name: "atomicity.check_ops_per_s", Unit: "1/s", Better: "higher"},
	{Name: "epoch.borrow_return_ns", Unit: "ns", Better: "lower"},
	{Name: "epoch.closed", Unit: "count", Better: "higher"},
	{Name: "epoch.stamp_gap_max_ms", Unit: "ms", Better: "lower"},
	{Name: "obs.observe_ns", Unit: "ns", Better: "lower"},
	{Name: "runtime.gc_cpu_frac", Unit: "frac", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
}
