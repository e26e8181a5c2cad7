package main

import (
	"testing"

	"fastreg/internal/proto"
	"fastreg/internal/types"
)

func TestSelfTimeSubtractsChildrenOnce(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},    // overlaps a by 10
		{ID: 4, Parent: 1, Name: "b", Start: 90, End: 120},   // runs past its parent
		{ID: 5, Parent: 2, Name: "leaf", Start: 15, End: 20}, // grandchild: a's, not op's
	}
	got := selfTimes(spans)
	// op: 100 − |[10,60) ∪ [90,100)| = 100 − 60 = 40
	want := map[string]int64{"op": 40, "a": 25, "b": 30 + 30, "leaf": 5}
	for name, w := range want {
		if got[name] != w {
			t.Errorf("self time of %q = %d, want %d", name, got[name], w)
		}
	}
}

var (
	w1 = types.Writer(1)
	r1 = types.Reader(1)
)

// req and rep build the two events one replica contributes to a round.
func req(client types.ProcID, key string, opID uint64, round, replica uint8, t int64) wireEvent {
	return wireEvent{t: t, client: client, key: key, opID: opID, round: round, replica: replica}
}

func rep(client types.ProcID, key string, opID uint64, round, replica uint8, t int64) wireEvent {
	return wireEvent{t: t, client: client, key: key, opID: opID, round: round, replica: replica, reply: true}
}

func TestCorrelateSplitsATwoRoundOp(t *testing.T) {
	ops := []opSpan{{client: w1, key: "k", start: 100, end: 1000, write: true}}
	events := []wireEvent{
		// round 1: replicas 1 and 2 make the quorum of 2; 2's reply is the 2nd to leave
		req(w1, "k", 9, 1, 1, 150), rep(w1, "k", 9, 1, 1, 200),
		req(w1, "k", 9, 1, 2, 180), rep(w1, "k", 9, 1, 2, 260),
		// replica 3 is a straggler: it answers round 1 after round 2 began
		req(w1, "k", 9, 1, 3, 500), rep(w1, "k", 9, 1, 3, 560),
		// round 2
		req(w1, "k", 9, 2, 1, 400), rep(w1, "k", 9, 2, 1, 470),
		req(w1, "k", 9, 2, 2, 420), rep(w1, "k", 9, 2, 2, 450),
		// and its straggler replies after the op returned
		req(w1, "k", 9, 2, 3, 900), rep(w1, "k", 9, 2, 3, 1100),
	}
	splits, ok, spans := correlate(ops, events, 2)
	if !ok[0] {
		t.Fatal("op not matched")
	}
	want := opSplit{out: 180 - 100, replica: (260 - 180) + (470 - 400), gap: 400 - 260, in: 1000 - 470}
	if splits[0] != want {
		t.Errorf("split %+v, want %+v", splits[0], want)
	}
	if sum := want.out + want.replica + want.gap + want.in; sum != 900 {
		t.Errorf("stages sum to %d, the op took 900", sum)
	}
	// Every span but the root hangs off the root and carries the op's index.
	var root span
	names := map[string]int{}
	for _, s := range spans {
		if s.Parent == 0 {
			root = s
		}
	}
	for _, s := range spans {
		names[s.Name]++
		if s.ID != root.ID && (s.Parent != root.ID || s.Op != 0) {
			t.Errorf("span %+v is not a child of the op's root", s)
		}
	}
	if root.Name != spanPut || root.Start != 100 || root.End != 1000 {
		t.Errorf("root span %+v", root)
	}
	if names[spanReplica] != 2 || names[spanOffPath] != 4 || names[spanClientOut] != 1 || names[spanRoundGap] != 1 || names[spanClientIn] != 1 {
		t.Errorf("span names %v", names)
	}
	// The stage spans tile the op, so the root has no self time left.
	if self := selfTimes(spans); self[spanPut] != 0 {
		t.Errorf("root self time %d, want 0", self[spanPut])
	}
}

// A retried round reaches a replica twice; only the first reply can have
// counted, so the duplicate must not move the blocking path.
func TestCorrelateIgnoresARetriedRound(t *testing.T) {
	ops := []opSpan{{client: r1, key: "k", start: 0, end: 500}}
	events := []wireEvent{
		req(r1, "k", 4, 1, 1, 50), rep(r1, "k", 4, 1, 1, 80),
		req(r1, "k", 4, 1, 2, 60), rep(r1, "k", 4, 1, 2, 100),
		// the retry tick re-sent round 1 to replica 2, which answered again
		req(r1, "k", 4, 1, 2, 300), rep(r1, "k", 4, 1, 2, 330),
	}
	splits, ok, _ := correlate(ops, events, 2)
	if !ok[0] {
		t.Fatal("op not matched")
	}
	want := opSplit{out: 60, replica: 40, gap: 0, in: 400}
	if splits[0] != want {
		t.Errorf("split %+v, want %+v", splits[0], want)
	}
}

// One identity's consecutive ops on one key are told apart by opID and
// matched by time; an op whose envelopes were never seen stays unmatched.
func TestCorrelateMatchesByIdentityKeyAndTime(t *testing.T) {
	ops := []opSpan{
		{client: r1, key: "k", start: 1000, end: 2000},
		{client: r1, key: "k", start: 0, end: 900},
		{client: r1, key: "other", start: 2100, end: 2200},
		{client: w1, key: "k", start: 0, end: 900, write: true},
	}
	var events []wireEvent
	for _, o := range []struct {
		client types.ProcID
		opID   uint64
		at     int64
	}{{r1, 1, 100}, {r1, 2, 1100}, {w1, 1, 200}} {
		for replica := uint8(1); replica <= 2; replica++ {
			events = append(events, req(o.client, "k", o.opID, 1, replica, o.at+int64(replica)), rep(o.client, "k", o.opID, 1, replica, o.at+50+int64(replica)))
		}
	}
	splits, ok, _ := correlate(ops, events, 2)
	if !ok[0] || !ok[1] || ok[2] || !ok[3] {
		t.Fatalf("matched %v, want [true true false true]", ok)
	}
	if splits[0].out != 102 || splits[1].out != 102 || splits[3].out != 202 {
		t.Errorf("client-out %d %d %d, want 102 102 202", splits[0].out, splits[1].out, splits[3].out)
	}
}

// The tracer keeps envelopes past the point where the replica hands the
// slab back to proto.PutEnvs, so what it keeps must not alias the slab or
// any slice the payload holds.
func TestSampledEnvelopesSurviveSlabRecycling(t *testing.T) {
	val := types.Value{Tag: types.Tag{TS: 3, WID: w1}, Data: "v"}
	slab := proto.GetEnvs()
	slab = append(slab, proto.Envelope{
		From: types.Server(1), To: r1, Key: "k", OpID: 1, Round: 1, IsReply: true,
		Payload: proto.FastReadAck{Vector: []proto.VectorEntry{{Val: val, Updated: []types.ProcID{r1}}}},
	})
	tr := &tracer{seen: sampleEvery - 1}
	tr.observe(slab, 1, 10)
	if len(tr.samples) != 1 || len(tr.events) != 1 {
		t.Fatalf("%d samples, %d events, want 1 and 1", len(tr.samples), len(tr.events))
	}
	// The replica is done with the slab and its state moves on.
	ack := slab[0].Payload.(proto.FastReadAck)
	ack.Vector[0].Updated[0] = types.Reader(2)
	ack.Vector[0].Val.Data = "overwritten"
	proto.PutEnvs(slab)
	reused := append(proto.GetEnvs(), proto.Envelope{Key: "another"})
	defer proto.PutEnvs(reused)

	got := tr.samples[0]
	vec := got.Payload.(proto.FastReadAck).Vector
	if got.Key != "k" || len(vec) != 1 || vec[0].Val != val || vec[0].Updated[0] != r1 {
		t.Errorf("sample changed after the slab was recycled: %+v", got)
	}
	if tr.events[0].key != "k" || tr.events[0].client != r1 || !tr.events[0].reply {
		t.Errorf("event %+v", tr.events[0])
	}
	if len(tr.vectors) != 1 || tr.vectors[0] != 1 {
		t.Errorf("vector observations %+v", tr.vectors)
	}
}

// frameScan reads proto's framing from outside; if the codec ever frames
// differently the wire counters would silently lie.
func TestFrameScanCountsCodecFrames(t *testing.T) {
	env := proto.Envelope{From: w1, To: types.Server(1), Key: "k", OpID: 1, Round: 1, Payload: proto.Query{}}
	var stream []byte
	var err error
	if stream, err = proto.AppendEnvelope(stream, env); err != nil {
		t.Fatal(err)
	}
	if stream, err = proto.AppendBatch(stream, []proto.Envelope{env, env, env}); err != nil {
		t.Fatal(err)
	}
	if stream, err = proto.AppendEnvelope(stream, env); err != nil {
		t.Fatal(err)
	}
	for _, chunk := range []int{1, 3, 7, len(stream)} {
		var fs frameScan
		var frames int64
		for off := 0; off < len(stream); off += chunk {
			frames += fs.feed(stream[off:min(off+chunk, len(stream))])
		}
		if frames != 3 || fs.body != 0 || fs.hdrHave != 0 {
			t.Errorf("fed %d bytes at a time: %d frames (body %d, header %d left), want 3 and a clean end", chunk, frames, fs.body, fs.hdrHave)
		}
	}
}
