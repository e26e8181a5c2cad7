// Package model is the paper's system model (Fig. 1) as one step relation:
// servers, readers and writers over reliable asynchronous channels, no
// server-to-server communication, a global clock the processes cannot
// read, and up to t server crashes.
//
// The state of an execution is the servers' register.ServerLogic, the
// invoked operations with their open rounds, and the undelivered messages.
// A step is one of
//
//   - invoke: an operation begins and sends its first round to every server;
//   - request: one request reaches one server, which handles it and sends
//     back its reply unless the server has crashed;
//   - reply: one reply reaches its client, which counts it by the round
//     rule of register.Collector: only toward the operation's open round,
//     once per server, and not after the operation responded;
//   - complete: once the open round is ready (register.Collector.Ready),
//     register.Collector.Complete hands its counted replies to the
//     operation, which either responds or sends its next round;
//   - crash: a server stops and handles nothing afterwards.
//
// A scheduler holds the undelivered messages and chooses the next step:
//
//   - Sim, the timed scheduler, gives every message a seeded virtual delay
//     and delivers the earliest first, ties in scheduling order. A round
//     completes at exactly its Need replies, in arrival order, and later
//     replies are dropped. Fig 2, the write-back ablation and Section 7 run
//     on it.
//   - Script, the scripted scheduler, follows a global order of round trips
//     and a per-server arrival order with skips, the vocabulary of
//     Section 3. A round completes at the first global position that finds
//     its Need replies counted, with every reply counted so far in server
//     order, and later replies are kept for the trace. Theorem 1's chains,
//     W1Rk and the Fig 8 sieve run on it.
//   - Skeleton.Explore, the bounded explorer, runs the Scripts of a
//     skeleton (one operation per client) in order of deviation from the
//     in-order baseline, once per multiset of arrival orders over servers,
//     up to a deviation depth or an execution count, and checks each for
//     atomicity. Table 1's and Fig 9's measured verdicts come from it.
package model

import (
	"fastreg/internal/history"
	"fastreg/internal/proto"
	"fastreg/internal/register"
	"fastreg/internal/types"
	"fastreg/internal/vclock"
)

// msg names one message: the request of round round of operation op to
// server srv (1-based), or, when reply is set, that server's reply, which
// carries its payload. A request's payload is its round's.
type msg struct {
	op, round, srv int
	reply          bool
	payload        proto.Message
}

// run is one invoked operation.
type run struct {
	col      register.Collector // the operation and its open round
	ref      history.Ref
	payloads []proto.Message // each sent round's request, round r at r-1
}

// stepKind names the steps of the relation.
type stepKind int

const (
	stepInvoke stepKind = iota
	stepRequest
	stepReply
	stepComplete
	stepCrash
)

// core is one execution's state.
type core struct {
	servers []register.ServerLogic // s_i at index i-1
	crashed []bool
	runs    []*run
	rec     *history.Recorder
	// observe, when set, sees every step after it is taken: the message
	// or, for invoke, complete and crash, the operation's round or the
	// server it names; whether the step took effect (handled, counted,
	// responded); and, for complete, how many replies the round counted
	// and its Need.
	observe func(k stepKind, m msg, took bool, counted, need int)
}

// observeSteps, when set, gives every new execution an observer.
var observeSteps func() func(k stepKind, m msg, took bool, counted, need int)

// newCore starts an execution on servers, recording its history on clock.
func newCore(servers []register.ServerLogic, clock *vclock.Clock) *core {
	c := &core{servers: servers, crashed: make([]bool, len(servers)), rec: history.NewRecorder(clock)}
	if observeSteps != nil {
		c.observe = observeSteps()
	}
	return c
}

func (c *core) note(k stepKind, m msg, took bool, counted, need int) {
	if c.observe != nil {
		c.observe(k, m, took, counted, need)
	}
}

// invoke records op's invocation at at, sends its first round and returns
// the operation's index.
func (c *core) invoke(at vclock.Time, op register.Operation, opID uint64) int {
	id := len(c.runs)
	o := &run{ref: c.rec.InvokeAt(at, op.Client(), opID, op.Kind(), op.Arg())}
	c.runs = append(c.runs, o)
	o.payloads = append(o.payloads, o.col.Begin(op, len(c.servers)).Payload)
	c.note(stepInvoke, msg{op: id, round: 1}, true, 0, 0)
	return id
}

// request delivers request m, a round already sent. It returns the server's
// reply, whose payload is nil when the server has crashed or sends none.
func (c *core) request(m msg) msg {
	handled := !c.crashed[m.srv-1]
	reply := msg{op: m.op, round: m.round, srv: m.srv, reply: true}
	if handled {
		o := c.runs[m.op]
		reply.payload = c.servers[m.srv-1].Handle(o.col.Op().Client(), o.payloads[m.round-1])
	}
	c.note(stepRequest, m, handled, 0, 0)
	return reply
}

// reply delivers reply m and reports whether its operation's open round
// counted it.
func (c *core) reply(m msg) bool {
	counted := c.runs[m.op].col.Count(m.round, register.Reply{From: types.Server(m.srv), Msg: m.payload})
	c.note(stepReply, m, counted, 0, 0)
	return counted
}

// complete hands the open round's counted replies to the operation, which
// either responds, recorded at at, or sends its next round.
func (c *core) complete(id int, at vclock.Time) {
	o := c.runs[id]
	round, counted, need := o.col.Round(), len(o.col.Replies()), o.col.Need()
	if next, more := o.col.Complete(); more {
		o.payloads = append(o.payloads, next.Payload)
	} else {
		res, err := o.col.Result()
		c.rec.RespondAt(at, o.ref, res, err)
	}
	c.note(stepComplete, msg{op: id, round: round}, o.col.Done(), counted, need)
}

// crash stops server srv (1-based).
func (c *core) crash(srv int) {
	c.crashed[srv-1] = true
	c.note(stepCrash, msg{srv: srv}, true, 0, 0)
}

// history snapshots the execution. Pending two-round writes have their
// recorded argument refreshed (the tag is assigned after round 1), so reads
// of in-flight values stay matchable by the checker.
func (c *core) history() history.History {
	for _, o := range c.runs {
		if !o.col.Done() {
			c.rec.UpdateValue(o.ref, o.col.Op().Arg())
		}
	}
	return c.rec.History()
}
