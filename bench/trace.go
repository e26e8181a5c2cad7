package main

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"

	"fastreg/internal/proto"
	"fastreg/internal/transport"
	"fastreg/internal/types"
)

// The traced pass observes the program from outside, at the one seam a
// replica offers: its transport.Listener. Each accepted socket is wrapped
// twice — below the framing layer by a net.Conn that counts bytes, calls
// and frames, above it by a transport.Conn that stamps every envelope as
// the replica receives it and as the replica hands back its reply. With
// the operation span taken around Put/Get on the same process clock, the
// op's blocking path splits into client-out, replica, round-gap and
// client-in without a change to the program.

// wireEvent is one envelope crossing a replica's Conn seam.
type wireEvent struct {
	t       int64 // RecvBatch return (request) or Send/SendBatch entry (reply)
	client  types.ProcID
	key     string
	opID    uint64
	round   uint8
	replica uint8 // 1-based
	reply   bool
}

// wireCounts are the byte-level totals of the replica-side sockets.
type wireCounts struct {
	readCalls, writeCalls  atomic.Int64
	readBytes, writeBytes  atomic.Int64
	reqFrames, replyFrames atomic.Int64
	reqEnvs, replyEnvs     atomic.Int64
}

// tracer collects what the wrapped listeners see while enabled.
type tracer struct {
	enabled atomic.Bool
	counts  wireCounts

	mu      sync.Mutex
	events  []wireEvent
	samples []proto.Envelope // deep copies, for the codec replay
	vectors []int            // valuevector length of every FastReadAck, in order
	seen    int
}

const (
	maxSamples  = 20000
	sampleEvery = 8
)

// listen binds replica i behind the tracer's wrappers.
func (tr *tracer) listen(replica int) (transport.Listener, error) {
	nl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	return &tracedListener{nl: nl, tr: tr, replica: uint8(replica)}, nil
}

type tracedListener struct {
	nl      net.Listener
	tr      *tracer
	replica uint8
}

func (l *tracedListener) Accept() (transport.Conn, error) {
	nc, err := l.nl.Accept()
	if err != nil {
		return nil, err
	}
	cc := &countingConn{Conn: nc, tr: l.tr}
	return &tracedConn{Conn: transport.WrapNetConn(cc), tr: l.tr, replica: l.replica}, nil
}

func (l *tracedListener) Addr() string { return l.nl.Addr().String() }
func (l *tracedListener) Close() error { return l.nl.Close() }

// frameScan counts the length-prefixed frames in a byte stream: a 4-byte
// big-endian body length, then the body — proto's framing, which a test
// checks this against.
type frameScan struct {
	hdr     [4]byte
	hdrHave int
	body    int
}

func (f *frameScan) feed(p []byte) (frames int64) {
	for len(p) > 0 {
		if f.body > 0 {
			n := min(f.body, len(p))
			f.body -= n
			p = p[n:]
			continue
		}
		n := copy(f.hdr[f.hdrHave:], p)
		f.hdrHave += n
		p = p[n:]
		if f.hdrHave == 4 {
			f.hdrHave = 0
			f.body = int(binary.BigEndian.Uint32(f.hdr[:]))
			frames++
		}
	}
	return frames
}

// countingConn sits between the socket and transport.WrapNetConn. The
// framing layer reads from one goroutine and writes from another, so each
// direction's scanner has a single user.
type countingConn struct {
	net.Conn
	tr      *tracer
	in, out frameScan
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if c.tr.enabled.Load() {
		c.tr.counts.readCalls.Add(1)
		c.tr.counts.readBytes.Add(int64(n))
		c.tr.counts.reqFrames.Add(c.in.feed(p[:n]))
	} else {
		c.in.feed(p[:n])
	}
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if c.tr.enabled.Load() {
		c.tr.counts.writeCalls.Add(1)
		c.tr.counts.writeBytes.Add(int64(n))
		c.tr.counts.replyFrames.Add(c.out.feed(p[:n]))
	} else {
		c.out.feed(p[:n])
	}
	return n, err
}

// tracedConn is the envelope-level wrapper the replica serves.
type tracedConn struct {
	transport.Conn
	tr      *tracer
	replica uint8
}

func (c *tracedConn) RecvBatch() ([]proto.Envelope, error) {
	envs, err := c.Conn.RecvBatch()
	if err == nil && c.tr.enabled.Load() {
		c.tr.observe(envs, c.replica, nowNs())
	}
	return envs, err
}

func (c *tracedConn) Recv() (proto.Envelope, error) {
	env, err := c.Conn.Recv()
	if err == nil && c.tr.enabled.Load() {
		c.tr.observe([]proto.Envelope{env}, c.replica, nowNs())
	}
	return env, err
}

func (c *tracedConn) SendBatch(envs []proto.Envelope) error {
	if c.tr.enabled.Load() {
		c.tr.observe(envs, c.replica, nowNs())
	}
	return c.Conn.SendBatch(envs)
}

func (c *tracedConn) Send(env proto.Envelope) error {
	if c.tr.enabled.Load() {
		c.tr.observe([]proto.Envelope{env}, c.replica, nowNs())
	}
	return c.Conn.Send(env)
}

// observe records one batch crossing the seam. Everything kept is copied
// here, before the caller can hand the slab to proto.PutEnvs.
func (tr *tracer) observe(envs []proto.Envelope, replica uint8, t int64) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for _, e := range envs {
		ev := wireEvent{t: t, key: e.Key, opID: e.OpID, round: e.Round, replica: replica, reply: e.IsReply}
		if e.IsReply {
			ev.client = e.To
			tr.counts.replyEnvs.Add(1)
			if m, ok := e.Payload.(proto.FastReadAck); ok {
				tr.vectors = append(tr.vectors, len(m.Vector))
			}
		} else {
			ev.client = e.From
			tr.counts.reqEnvs.Add(1)
		}
		tr.events = append(tr.events, ev)
		tr.seen++
		if tr.seen%sampleEvery == 0 && len(tr.samples) < maxSamples {
			tr.samples = append(tr.samples, cloneEnvelope(e))
		}
	}
}

// cloneEnvelope copies every slice an envelope's payload holds, so the
// copy survives the slab being recycled and the replica's state moving on.
func cloneEnvelope(e proto.Envelope) proto.Envelope {
	switch m := e.Payload.(type) {
	case proto.FastRead:
		e.Payload = proto.FastRead{ValQueue: append([]types.Value(nil), m.ValQueue...)}
	case proto.FastReadAck:
		vec := make([]proto.VectorEntry, len(m.Vector))
		for i, ent := range m.Vector {
			vec[i] = ent.Clone()
		}
		e.Payload = proto.FastReadAck{Vector: vec}
	case proto.LogAck:
		e.Payload = proto.LogAck{Events: append([]proto.LogEvent(nil), m.Events...)}
	}
	return e
}

// span is one timed interval of the trace: a name, its bounds on the
// process clock, the span that caused it (0 = none) and the operation it
// belongs to.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Span names. The four stage spans tile an operation's blocking path;
// off-path spans are the replica handlings the quorum did not wait for.
const (
	spanPut       = "fastreg.put"
	spanGet       = "fastreg.get"
	spanClientOut = "transport.client_out"
	spanReplica   = "transport.replica"
	spanRoundGap  = "transport.round_gap"
	spanClientIn  = "transport.client_in"
	spanOffPath   = "transport.replica_offpath"
)

// opSpan is an operation as the generator saw it, ready to be matched
// with the envelopes it caused.
type opSpan struct {
	client     types.ProcID
	key        string
	start, end int64
	write      bool
}

// opSplit is one correlated operation's blocking path, in ns.
type opSplit struct {
	out, replica, gap, in int64
}

const maxReplicas = 8

// envGroup gathers the events of one (client, key, opID): per round and
// replica, the first request arrival and the first reply departure. A
// retried round reaches a replica twice; the first reply is the one that
// can have counted, so later duplicates are ignored.
type envGroup struct {
	client    types.ProcID
	key       string
	firstRecv int64
	recv      [2][maxReplicas + 1]int64
	send      [2][maxReplicas + 1]int64
}

// correlate matches envelopes to operations and splits each matched
// operation's blocking path. need is the reply quorum: a round's blocking
// replica is the one whose reply was the need-th to leave, so a straggler
// that answers after the quorum never sits on the path. It returns the
// splits (index-aligned with ops; ok[i] false when op i could not be
// matched) and the trace's spans.
func correlate(ops []opSpan, events []wireEvent, need int) (splits []opSplit, ok []bool, spans []span) {
	type gkey struct {
		client types.ProcID
		key    string
		opID   uint64
	}
	groups := map[gkey]*envGroup{}
	for _, ev := range events {
		if ev.round < 1 || ev.round > 2 || ev.replica < 1 || ev.replica > maxReplicas {
			continue
		}
		k := gkey{ev.client, ev.key, ev.opID}
		g := groups[k]
		if g == nil {
			g = &envGroup{client: ev.client, key: ev.key}
			groups[k] = g
		}
		slot := &g.recv[ev.round-1][ev.replica]
		if ev.reply {
			slot = &g.send[ev.round-1][ev.replica]
		} else if g.firstRecv == 0 || ev.t < g.firstRecv {
			g.firstRecv = ev.t
		}
		if *slot == 0 || ev.t < *slot {
			*slot = ev.t
		}
	}
	// An identity runs one operation at a time, so within one (client,
	// key) the group whose first request arrived inside an operation's
	// interval belongs to that operation.
	type ckey struct {
		client types.ProcID
		key    string
	}
	byClient := map[ckey][]*envGroup{}
	for _, g := range groups {
		if g.firstRecv != 0 {
			k := ckey{g.client, g.key}
			byClient[k] = append(byClient[k], g)
		}
	}
	for _, gs := range byClient {
		sort.Slice(gs, func(i, j int) bool { return gs[i].firstRecv < gs[j].firstRecv })
	}
	order := make([]int, len(ops))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return ops[order[a]].start < ops[order[b]].start })

	splits = make([]opSplit, len(ops))
	ok = make([]bool, len(ops))
	next := map[ckey]int{}
	id := 0
	add := func(parent, op int, name string, start, end int64) int {
		id++
		spans = append(spans, span{ID: id, Parent: parent, Op: op, Name: name, Start: start, End: end})
		return id
	}
	for _, i := range order {
		op := ops[i]
		k := ckey{op.client, op.key}
		gs := byClient[k]
		j := next[k]
		for j < len(gs) && gs[j].firstRecv < op.start {
			j++
		}
		next[k] = j
		name := spanGet
		if op.write {
			name = spanPut
		}
		root := add(0, i, name, op.start, op.end)
		if j == len(gs) || gs[j].firstRecv > op.end {
			continue
		}
		g := gs[j]
		next[k] = j + 1

		var sp opSplit
		at := op.start
		matched := true
		for r := 0; r < 2; r++ {
			crit := g.blocking(r, need)
			if crit == 0 {
				matched = matched && r > 0 // a one-round op has no round 2
				break
			}
			recv, send := g.recv[r][crit], g.send[r][crit]
			if r == 0 {
				sp.out = recv - at
				add(root, i, spanClientOut, at, recv)
			} else {
				sp.gap = recv - at
				add(root, i, spanRoundGap, at, recv)
			}
			sp.replica += send - recv
			add(root, i, spanReplica, recv, send)
			for rep := 1; rep <= maxReplicas; rep++ {
				if rep != crit && g.recv[r][rep] != 0 && g.send[r][rep] != 0 {
					add(root, i, spanOffPath, g.recv[r][rep], g.send[r][rep])
				}
			}
			at = send
		}
		if !matched || at > op.end {
			continue
		}
		sp.in = op.end - at
		add(root, i, spanClientIn, at, op.end)
		splits[i], ok[i] = sp, true
	}
	return splits, ok, spans
}

// blocking returns the replica whose reply was the need-th to leave in
// round r (0-based), or 0 when fewer than need replicas answered.
func (g *envGroup) blocking(r, need int) int {
	var reps []int
	for rep := 1; rep <= maxReplicas; rep++ {
		if g.recv[r][rep] != 0 && g.send[r][rep] != 0 {
			reps = append(reps, rep)
		}
	}
	if len(reps) < need {
		return 0
	}
	sort.Slice(reps, func(a, b int) bool { return g.send[r][reps[a]] < g.send[r][reps[b]] })
	return reps[need-1]
}

// selfTimes returns, per span name, the total time spent in spans of that
// name outside their children: each span's duration minus the part of its
// interval its child spans cover (overlapping children count once).
func selfTimes(spans []span) map[string]int64 {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]int64{}
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, edge), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[s.Name] += (s.End - s.Start) - covered
	}
	return out
}

// writeTrace writes the spans and their per-name means to path: one JSON
// header line, then one span per line.
func writeTrace(path string, header map[string]any, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close() // error paths; the success path checks Close below
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(header); err != nil {
		return err
	}
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		return err
	}
	return f.Close()
}
