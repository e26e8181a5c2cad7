package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"fastreg/internal/audit"
	"fastreg/internal/epoch"
	"fastreg/internal/history"
	"fastreg/internal/keyreg"
	"fastreg/internal/netsim"
	"fastreg/internal/obs"
	"fastreg/internal/proto"
	"fastreg/internal/protocols"
	"fastreg/internal/register"
	"fastreg/internal/transport"
	"fastreg/internal/types"
)

// The per-layer ladder. Each rung below drives one layer alone, through
// its public functions, on the workload's own inputs (protocol, cluster
// shape, key sequence, value size), so adjacent rungs subtract to a
// layer's cost and a change to one layer has one number that must move.

// backendClient drives a bare kv.Backend-shaped runtime — the transport
// client over channels, or netsim.MultiLive — for the closed-loop rungs.
type backendClient struct {
	b interface {
		Write(ctx context.Context, key string, writer int, data string) (types.Value, error)
		Read(ctx context.Context, key string, reader int) (types.Value, error)
	}
}

func (c backendClient) put(ctx context.Context, writer int, key, value string) error {
	_, err := c.b.Write(ctx, key, writer, value)
	return err
}

func (c backendClient) get(ctx context.Context, reader int, key string) error {
	_, err := c.b.Read(ctx, key, reader)
	return err
}

// rungWorkload is the closed loop every no-kernel rung runs: the
// workload's protocol and shape, 16 identities or as many as the shape
// allows, uniform keys.
func rungWorkload(w workload) workload {
	r := w
	r.open, r.audited, r.zipfS = false, false, 0
	r.family = "rung"
	return r
}

// closedRung drives c for dur after a short warm-up and returns ns and
// heap allocations per completed operation.
func closedRung(c client, w workload, seed int64, dur time.Duration) (nsPerOp, allocsPerOp float64) {
	s := buildSchedule(w, seed, "window", dur)
	drive(c, w, s, dur/4, newPassResult(w, s, dur/4))
	res := newPassResult(w, s, dur)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	drive(c, w, s, dur, res)
	runtime.ReadMemStats(&m1)
	ops := float64(max(res.completed, 1))
	return float64(res.elapsed) / ops, float64(m1.Mallocs-m0.Mallocs) / ops
}

// chanRung is transport.Client against transport.Server over the
// in-process ChanNetwork: the round engine and batching with no codec
// and no kernel. tcp-sat's ns/op minus this is what sockets cost.
func chanRung(w workload, seed int64, dur time.Duration) (nsPerOp, allocsPerOp float64, err error) {
	w = rungWorkload(w)
	impl, err := protocols.New(string(w.proto))
	if err != nil {
		return 0, 0, err
	}
	cfg := qcfg(w.cfg)
	net := transport.NewChanNetwork()
	addrs := make([]string, cfg.S)
	var servers []*transport.Server
	defer func() {
		for _, s := range servers {
			s.Close()
		}
	}()
	for i := 1; i <= cfg.S; i++ {
		addrs[i-1] = fmt.Sprintf("s%d", i)
		lis, err := net.Listen(addrs[i-1])
		if err != nil {
			return 0, 0, err
		}
		srv, err := transport.NewServer(cfg, impl, i, lis)
		if err != nil {
			lis.Close()
			return 0, 0, err
		}
		servers = append(servers, srv)
	}
	cl, err := transport.NewClient(cfg, impl, addrs, net.Dial)
	if err != nil {
		return 0, 0, err
	}
	defer cl.Close()
	nsPerOp, allocsPerOp = closedRung(backendClient{cl}, w, seed, dur)
	return nsPerOp, allocsPerOp, nil
}

// netsimRung is netsim.MultiLive through the Backend seam, without or
// with wire encoding; the difference is the codec's cost in-process.
func netsimRung(w workload, seed int64, dur time.Duration, wire bool) (float64, error) {
	w = rungWorkload(w)
	impl, err := protocols.New(string(w.proto))
	if err != nil {
		return 0, err
	}
	var opts []netsim.MultiOption
	if wire {
		opts = append(opts, netsim.WithMultiWireEncoding())
	}
	m, err := netsim.NewMultiLive(qcfg(w.cfg), impl, opts...)
	if err != nil {
		return 0, err
	}
	defer m.Close()
	ns, _ := closedRung(backendClient{m}, w, seed, dur)
	return ns, nil
}

// registerRung is rung 0: the workload's protocol as bare state machines,
// one set of S ServerLogics per key, no transport. The work is a fixed
// count (every key written preload times, then read readsPerKey times),
// so valuevector depth — which a W2R1 read's cost follows — is the same
// on every commit.
func registerRung(w workload) (writeNs, readNs, replyEntries float64, err error) {
	const (
		rungKeys    = 256
		readsPerKey = 16
	)
	impl, err := protocols.New(string(w.proto))
	if err != nil {
		return 0, 0, 0, err
	}
	cfg := qcfg(w.cfg)
	servers := make([][]register.ServerLogic, rungKeys)
	writers := make([]register.Writer, rungKeys)
	readers := make([]register.Reader, rungKeys)
	for k := range servers {
		for i := 1; i <= cfg.S; i++ {
			servers[k] = append(servers[k], impl.NewServer(types.Server(i), cfg))
		}
		writers[k] = impl.NewWriter(types.Writer(1), cfg)
		readers[k] = impl.NewReader(types.Reader(1), cfg)
	}
	value := string(make([]byte, w.valueBytes))
	var entries, replies int
	exec := func(op register.Operation, ss []register.ServerLogic) error {
		round := op.Begin()
		for {
			reps := make([]register.Reply, 0, len(ss))
			for _, s := range ss {
				if m := s.Handle(op.Client(), round.Payload); m != nil {
					reps = append(reps, register.Reply{From: s.ID(), Msg: m})
					if ack, ok := m.(proto.FastReadAck); ok {
						entries += len(ack.Vector)
						replies++
					}
				}
			}
			next, _, done, err := op.Next(reps[:min(round.Need, len(reps))])
			if err != nil || done {
				return err
			}
			round = *next
		}
	}
	writes := max(w.preload, 1)
	t0 := time.Now()
	for n := 0; n < writes; n++ {
		for k := range servers {
			if err := exec(writers[k].WriteOp(value), servers[k]); err != nil {
				return 0, 0, 0, err
			}
		}
	}
	writeNs = float64(time.Since(t0)) / float64(writes*rungKeys)
	t0 = time.Now()
	for n := 0; n < readsPerKey; n++ {
		for k := range servers {
			if err := exec(readers[k].ReadOp(), servers[k]); err != nil {
				return 0, 0, 0, err
			}
		}
	}
	readNs = float64(time.Since(t0)) / float64(readsPerKey*rungKeys)
	if replies > 0 {
		replyEntries = float64(entries) / float64(replies)
	}
	return writeNs, readNs, replyEntries, nil
}

// lookups is how many key lookups the keyreg rungs time.
const lookups = 1 << 17

// keySequence is the workload's own key sequence, long enough for the
// keyreg rungs: the working set and its skew are the workload's.
func keySequence(s *schedule) []string {
	out := make([]string, 0, lookups)
	for i := 0; len(out) < lookups; i++ {
		switch {
		case len(s.key) > 0:
			out = append(out, s.keys[s.key[i%len(s.key)]])
		case len(s.seq) > 0:
			seq := s.seq[i%len(s.seq)]
			out = append(out, s.keys[seq[(i/len(s.seq))%len(seq)]])
		default:
			out = append(out, s.keys[i%len(s.keys)])
		}
	}
	return out
}

// keyregRung times the two sharded lookups every operation pays: the
// client registry's Acquire/Release and a replica shard's GetLocked.
func keyregRung(w workload, keys []string) (acquireNs, serverGetNs float64, err error) {
	impl, err := protocols.New(string(w.proto))
	if err != nil {
		return 0, 0, err
	}
	cfg := qcfg(w.cfg)
	creg := keyreg.NewClientRegistry(0)
	sreg := keyreg.NewServerRegistry(0, func() register.ServerLogic { return impl.NewServer(types.Server(1), cfg) })
	touch := func() {
		for _, k := range keys {
			creg.Release(creg.Acquire(k))
		}
	}
	touch() // create every key's state first: steady-state lookups only
	t0 := time.Now()
	touch()
	acquireNs = float64(time.Since(t0)) / float64(len(keys))

	get := func() {
		for _, k := range keys {
			sh := sreg.Shard(sreg.ShardIndex(k))
			sh.Lock()
			sh.GetLocked(k)
			sh.Unlock()
		}
	}
	get()
	t0 = time.Now()
	get()
	serverGetNs = float64(time.Since(t0)) / float64(len(keys))
	return acquireNs, serverGetNs, nil
}

// codecRung replays envelopes sampled from the traced pass through the
// frame codec, in batches of the size the wire carried them.
func codecRung(samples []proto.Envelope, batch int) (encodeNs, decodeNs, bytesPerEnv float64, err error) {
	if len(samples) == 0 {
		return 0, 0, 0, nil
	}
	batch = max(batch, 1)
	const rounds = 8
	var frames [][]byte
	var bytes int
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		frames = frames[:0]
		bytes = 0
		for i := 0; i < len(samples); i += batch {
			b, err := proto.AppendBatch(nil, samples[i:min(i+batch, len(samples))])
			if err != nil {
				return 0, 0, 0, err
			}
			frames = append(frames, b)
			bytes += len(b)
		}
	}
	encodeNs = float64(time.Since(t0)) / float64(rounds*len(samples))
	t0 = time.Now()
	for r := 0; r < rounds; r++ {
		for _, b := range frames {
			envs, _, err := proto.AppendDecode(proto.GetEnvs(), b)
			if err != nil {
				return 0, 0, 0, err
			}
			proto.PutEnvs(envs)
		}
	}
	decodeNs = float64(time.Since(t0)) / float64(rounds*len(samples))
	return encodeNs, decodeNs, float64(bytes) / float64(len(samples)), nil
}

// taxRung times the three optional taxes alone: one capture record
// appended to a trace log, one epoch weight borrow and return, one
// histogram observation.
func taxRung(w workload, scratch string) (captureNs, borrowReturnNs, observeNs float64, err error) {
	const n = 1 << 15
	path := filepath.Join(scratch, "taxrung"+audit.TraceExt)
	lw, err := audit.NewFileWriter(path, audit.ClientHeader("taxrung", string(w.proto), qcfg(w.cfg)))
	if err != nil {
		return 0, 0, 0, err
	}
	defer os.Remove(path)
	op := history.Op{Client: types.Writer(1), Kind: types.OpWrite, Invoke: 1, Response: 2,
		Value: types.Value{Tag: types.Tag{TS: 1, WID: types.Writer(1)}, Data: string(make([]byte, w.valueBytes))}}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		op.OpID = uint64(i)
		lw.Op("k00000", op)
	}
	if err := lw.Close(); err != nil {
		return 0, 0, 0, err
	}
	captureNs = float64(time.Since(t0)) / n

	co := epoch.New(nil)
	t0 = time.Now()
	for i := 0; i < n; i++ {
		tk := co.Borrow()
		co.Return(tk.Epoch, tk.Budget)
	}
	borrowReturnNs = float64(time.Since(t0)) / n

	h := obs.New().Histogram("bench.rung")
	t0 = time.Now()
	for i := 0; i < n; i++ {
		h.Observe(int64(i))
	}
	observeNs = float64(time.Since(t0)) / n
	return captureNs, borrowReturnNs, observeNs, nil
}

// auditRung runs the operator's pipeline over the capture logs a traced
// pass left: the offline merge, a follower drained to the end, and the
// merged per-key histories for the sampled check.
type auditOut struct {
	mergeS         float64
	followOpsPerS  float64
	violatedEpochs int
	logBytes       int64
	keys           []keyHistory
}

func auditRung(dir string) (*auditOut, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*"+audit.TraceExt))
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("no trace logs in %s", dir)
	}
	out := &auditOut{}
	all, _ := filepath.Glob(filepath.Join(dir, "*"+audit.TraceExt+"*"))
	for _, p := range all {
		if fi, err := os.Stat(p); err == nil {
			out.logBytes += fi.Size()
		}
	}
	t0 := time.Now()
	m, err := audit.MergeFiles(paths...)
	if err != nil {
		return nil, err
	}
	out.mergeS = time.Since(t0).Seconds()
	for _, kh := range m.Keys {
		out.keys = append(out.keys, keyHistory{key: kh.Key, h: kh.History(), domainOf: kh.DomainOf})
	}

	f := audit.NewFollower(audit.FollowOptions{})
	defer f.Close()
	for _, p := range paths {
		if err := f.AddLog(p); err != nil {
			return nil, err
		}
	}
	t0 = time.Now()
	for f.Poll() > 0 {
	}
	f.Drain()
	if spent := time.Since(t0).Seconds(); spent > 0 {
		out.followOpsPerS = float64(f.TotalOps) / spent
	}
	out.violatedEpochs = f.ViolatedEpochs
	return out, nil
}

// hasAuditedTwin reports whether the workload table holds w's schedule
// with every optional tax on.
func hasAuditedTwin(w workload) bool {
	for _, t := range workloads {
		if t.audited && t.family == w.family {
			return true
		}
	}
	return false
}

// layers is the traced run: every per-layer metric of one workload. An
// untraced and a traced pass on fresh fleets with one schedule, then the
// ladder rungs, then the audit pipeline and the sampled gate. The audit
// pipeline needs capture logs: an audited workload's traced pass leaves
// them, and a workload with an audited twin (tcp-open) makes one more
// pass as its twin — same schedule, every optional tax on — for them.
func layers(w workload, seed int64, seconds float64, o fleetOpts, traceOut string) (*runResult, error) {
	total := time.Duration(seconds * float64(time.Second))
	pass := passOpts{warm: total / 10, window: total * 3 / 10, fleet: o}

	plain, err := runPass(w, seed, pass)
	if err != nil {
		return nil, err
	}
	os.RemoveAll(plain.logDir)
	plain.hist = nil // only the traced pass is checked
	tr := &tracer{}
	pass.fleet.tracer = tr
	traced, err := runPass(w, seed, pass)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(traced.logDir)
	taxed := traced // the pass whose capture logs feed the audit pipeline
	if !w.audited && hasAuditedTwin(w) {
		twin := w
		twin.audited = true
		pass.fleet.tracer = nil
		if taxed, err = runPass(twin, seed, pass); err != nil {
			return nil, err
		}
		defer os.RemoveAll(taxed.logDir)
	}

	res := traced.res
	r := &runResult{Attempted: res.scheduled, Failed: res.scheduled - res.completed, Metrics: map[string]metric{}}
	for _, d := range perLayer {
		r.set(perLayer, d.Name, 0) // what does not apply to this workload stays 0
	}
	set := func(name string, v float64) { r.set(perLayer, name, v) }

	clientMetrics(set, plain, traced)
	spans := opSpans(w, traced.sched, res)
	if w.tcp {
		note, err := transportMetrics(set, w, seed, tr, spans, traceOut)
		if err != nil {
			return nil, err
		}
		r.notes = append(r.notes, note)
	}
	set("transport.flush_batch_mean", taxed.flushAvg)
	if err := ladderMetrics(set, w, seed, total/10, traced.sched, o.scratch); err != nil {
		return nil, err
	}

	// The audit pipeline runs over the traced pass's logs where there are
	// any; the sampled gate runs on every workload.
	keys := traced.hist
	var logBytes int64
	if taxed.logDir != "" {
		au, err := auditRung(taxed.logDir)
		if err != nil {
			return nil, err
		}
		keys, logBytes = au.keys, au.logBytes
		set("audit.merge_s", au.mergeS)
		set("audit.follow_ops_per_s", au.followOpsPerS)
		set("audit.follow_violated_epochs", float64(au.violatedEpochs))
		var closed int
		var last, gapMax int64
		for _, at := range taxed.epochAt {
			if at < taxed.began {
				continue // closed during preload or warm-up
			}
			if closed++; last != 0 {
				gapMax = max(gapMax, at-last)
			}
			last = at
		}
		set("epoch.closed", float64(closed))
		set("epoch.stamp_gap_max_ms", float64(gapMax)/1e6)
		r.notes = append(r.notes, fmt.Sprintf("audit: follower reports %d violated epoch(s) — reported, never gated", au.violatedEpochs))
	}
	gate := sampleCheck(keys, total/5)
	r.Correct = gate.clean
	if taxed != traced && gate.clean {
		// The verdict above is on the twin's logs; the traced pass is this
		// workload's own and is checked too.
		if own := sampleCheck(traced.hist, total/10); !own.clean {
			gate.clean, gate.violation, r.Correct = false, own.violation, false
		}
	}
	set("audit.sample_check_s", gate.spent.Seconds())
	set("audit.sample_cover_frac", gate.coverFrac())
	set("atomicity.check_ops_per_s", gate.opsPerSec())
	// The logs hold every operation since the fleet started, so they are
	// divided by every operation recorded, not by the window's.
	set("audit.log_bytes_per_op", float64(logBytes)/float64(max(gate.totalOps, 1)))
	r.notes = append(r.notes, passNotes(w, traced, gate)...)
	r.notes = append(r.notes, lateNotes(plain.res)...)
	if !gate.clean {
		r.notes = append(r.notes, "VIOLATION: "+gate.violation)
	}
	return r, nil
}

// clientMetrics reports what the generator saw around Put/Get: tails and
// generator health from the untraced pass, and the tracer's overhead as
// traced minus untraced p50 over all operations.
func clientMetrics(set func(string, float64), plain, traced *passOut) {
	puts, gets := plain.res.latencies(true), plain.res.latencies(false)
	set("fastreg.put_p95_us", quantileUs(puts, 0.95))
	set("fastreg.get_p95_us", quantileUs(gets, 0.95))
	set("fastreg.put_p99_us", quantileUs(puts, 0.99))
	set("fastreg.get_p99_us", quantileUs(gets, 0.99))
	set("fastreg.failed_frac", float64(plain.res.scheduled-plain.res.completed)/float64(max(plain.res.scheduled, 1)))
	set("gen.late_p50_us", quantileUs(plain.res.late, 0.50))
	set("gen.late_p95_us", quantileUs(plain.res.late, 0.95))
	set("gen.late_p99_us", quantileUs(plain.res.late, 0.99))
	set("gen.backlog_max", float64(plain.res.backlogMax))
	p50 := func(p *passResult) float64 {
		all := append(p.latencies(true), p.latencies(false)...)
		slices.Sort(all)
		return quantileUs(all, 0.50)
	}
	set("gen.trace_overhead_us", p50(traced.res)-p50(plain.res))
	var calls, inCall float64
	for _, recs := range traced.res.ops {
		for _, r := range recs {
			calls++
			inCall += float64(r.start + r.lat - r.call)
		}
	}
	set("fastreg.traced_op_mean_us", us(inCall/max(calls, 1)))
	set("runtime.gc_cpu_frac", plain.gcCPU/max(plain.cpu.Seconds(), 1e-9))
	set("runtime.gc_cycles", float64(plain.gcCycles))
}

// transportMetrics reports what the tracer saw at the replicas' Conn
// seam: the blocking-path split, the wire counts, valuevector lengths,
// and the codec replay of the envelopes it sampled. It writes the trace
// file when asked to.
func transportMetrics(set func(string, float64), w workload, seed int64, tr *tracer, spans []opSpan, traceOut string) (note string, err error) {
	tr.mu.Lock()
	events, samples, vectors := tr.events, tr.samples, tr.vectors
	tr.mu.Unlock()
	splits, ok, all := correlate(spans, events, qcfg(w.cfg).ReplyQuorum())
	stages := []struct {
		name string
		xs   []int64
	}{{name: "transport.client_out_us"}, {name: "transport.replica_us"}, {name: "transport.round_gap_us"}, {name: "transport.client_in_us"}}
	matched := 0
	for i, sp := range splits {
		if ok[i] {
			matched++
			for j, v := range [...]int64{sp.out, sp.replica, sp.gap, sp.in} {
				stages[j].xs = append(stages[j].xs, v)
			}
		}
	}
	means := map[string]float64{}
	var sum float64
	for _, st := range stages {
		slices.Sort(st.xs)
		set(st.name, quantileUs(st.xs, 0.50))
		means[st.name] = us(meanInt64(st.xs))
		sum += means[st.name]
	}
	set("transport.split_mean_sum_us", sum)
	if traceOut != "" {
		self := map[string]float64{}
		for name, ns := range selfTimes(all) {
			self[name] = us(float64(ns))
		}
		header := map[string]any{"workload": w.name, "seed": seed, "ops": len(spans), "matched_ops": matched,
			"stage_means_us": means, "self_time_total_us": self}
		if err := writeTrace(traceOut, header, all); err != nil {
			return "", err
		}
	}

	c := &tr.counts
	ops := float64(max(len(spans), 1))
	reqFrames, replyFrames := float64(c.reqFrames.Load()), float64(c.replyFrames.Load())
	envsPerReqFrame := float64(c.reqEnvs.Load()) / max(reqFrames, 1)
	set("transport.envs_per_req_frame", envsPerReqFrame)
	set("transport.envs_per_reply_frame", float64(c.replyEnvs.Load())/max(replyFrames, 1))
	set("transport.frames_per_op", (reqFrames+replyFrames)/ops)
	set("transport.wire_bytes_per_op", float64(c.readBytes.Load()+c.writeBytes.Load())/ops)
	set("transport.read_calls_per_op", float64(c.readCalls.Load())/ops)
	set("transport.write_calls_per_op", float64(c.writeCalls.Load())/ops)

	if n := len(vectors); n > 0 {
		var total float64
		for _, v := range vectors {
			total += float64(v)
		}
		set("register.read_reply_entries", total/float64(n))
		decile := max(n/10, 1)
		var first, last float64
		for i := 0; i < decile; i++ {
			first += float64(vectors[i])
			last += float64(vectors[n-1-i])
		}
		set("register.read_reply_entries_drift", (last-first)/float64(decile))
	}
	enc, dec, bytesPerEnv, err := codecRung(samples, int(envsPerReqFrame+0.5))
	if err != nil {
		return "", err
	}
	set("proto.encode_ns_per_env", enc)
	set("proto.decode_ns_per_env", dec)
	set("proto.bytes_per_env", bytesPerEnv)
	return fmt.Sprintf("trace: %d of %d ops matched to their envelopes, %d wire events", matched, len(spans), len(events)), nil
}

// ladderMetrics runs the rungs that need no fleet: bare state machines,
// the keyreg lookups, netsim with and without the codec, the transport
// engine over channels, and the three optional taxes alone.
func ladderMetrics(set func(string, float64), w workload, seed int64, rung time.Duration, s *schedule, scratch string) error {
	// Collect the passes' garbage first, so it is not charged to the rungs.
	runtime.GC()
	writeNs, readNs, entries, err := registerRung(w)
	if err != nil {
		return err
	}
	set("register.write_ns_per_op", writeNs)
	set("register.read_ns_per_op", readNs)
	if !w.tcp {
		set("register.read_reply_entries", entries) // no wire to read them off
	}
	acquireNs, getNs, err := keyregRung(w, keySequence(s))
	if err != nil {
		return err
	}
	set("keyreg.acquire_ns", acquireNs)
	set("keyreg.server_get_ns", getNs)
	ns, err := netsimRung(w, seed, rung, false)
	if err != nil {
		return err
	}
	set("netsim.ns_per_op", ns)
	if ns, err = netsimRung(w, seed, rung, true); err != nil {
		return err
	}
	set("netsim.wire_ns_per_op", ns)
	chanNs, chanAllocs, err := chanRung(w, seed, rung)
	if err != nil {
		return err
	}
	set("transport.chan_ns_per_op", chanNs)
	set("transport.chan_allocs_per_op", chanAllocs)
	captureNs, borrowNs, observeNs, err := taxRung(w, scratch)
	if err != nil {
		return err
	}
	set("audit.capture_ns_per_rec", captureNs)
	set("epoch.borrow_return_ns", borrowNs)
	set("obs.observe_ns", observeNs)
	return nil
}

// opSpans turns a pass's records into the spans correlate matches: the
// interval around each Put/Get call, under the identity that made it.
func opSpans(w workload, s *schedule, res *passResult) []opSpan {
	var out []opSpan
	for id, recs := range res.ops {
		client := types.Writer(id + 1)
		if id >= w.cfg.Writers {
			client = types.Reader(id - w.cfg.Writers + 1)
		}
		for _, r := range recs {
			out = append(out, opSpan{client: client, key: s.keys[r.key], start: r.call, end: r.start + r.lat, write: r.write})
		}
	}
	return out
}
