package model

import (
	"cmp"
	"fmt"
	"slices"

	"fastreg/internal/history"
	"fastreg/internal/proto"
	"fastreg/internal/register"
	"fastreg/internal/types"
	"fastreg/internal/vclock"
)

// RT identifies one round trip: round Round (1-based) of operation Op
// (index into a script's operations).
type RT struct {
	Op    int
	Round int
}

// String renders "op2.1"-style names.
func (rt RT) String() string { return fmt.Sprintf("op%d.%d", rt.Op, rt.Round) }

// Script is a scripted execution: the operations, the global temporal order
// of their round trips (round trips are non-concurrent, as throughout the
// proof of Theorem 1), and each server's arrival order. A round trip absent
// from a server's arrival order is skipped there: delayed past the end of
// the execution.
type Script struct {
	Servers []register.ServerLogic // s_i at index i-1
	Ops     []register.Operation
	Global  []RT
	Arrival map[int][]RT // server index (1-based) → arrival order
}

// Result is one operation's fate in a scripted execution.
type Result struct {
	Value types.Value
	Err   error
	Done  bool // responded without error
	// Replies maps a round to the replies its client received, and From to
	// the servers (1-based) they came from: for a completed round the
	// replies it counted, in server order, then the ones that arrived after
	// it completed; for an open round the counted ones, in arrival order.
	Replies map[int][]proto.Message
	From    map[int][]int
}

// Run executes the script. At each global position it starts that round
// trip, lets every server handle the requests at the head of its arrival
// order until one is not sent yet (channels are FIFO), and completes every
// round that has counted its Need replies: the earliest point the client
// can respond. An operation whose round cannot reach its Need stalls: its
// later rounds are never sent, and it stays pending. Run returns an error
// only for a malformed script (unknown operations, rounds out of order or
// started after the operation responded).
func (sc Script) Run() ([]Result, history.History, error) { return sc.run(true) }

// run is Run. Without replies it leaves every Result's Replies and From
// nil, for the explorer, which reads only the history.
func (sc Script) run(replies bool) ([]Result, history.History, error) {
	c := newCore(sc.Servers, &vclock.Clock{})
	n := len(sc.Ops)
	ids := make([]int, n)     // each operation's index in c, once invoked
	started := make([]int, n) // rounds the script has started
	stalled := make([]bool, n)
	results := make([]Result, n)
	if replies {
		for i := range results {
			results[i].Replies, results[i].From = make(map[int][]proto.Message), make(map[int][]int)
		}
	}
	received := func(i, round int, reps ...register.Reply) {
		if !replies {
			return
		}
		for _, r := range reps {
			results[i].Replies[round] = append(results[i].Replies[round], r.Msg)
			results[i].From[round] = append(results[i].From[round], r.From.Index)
		}
	}
	cursor := make([]int, len(sc.Servers)+1)
	for srv, order := range sc.Arrival {
		for _, rt := range order {
			if rt.Op < 0 || rt.Op >= n {
				return nil, history.History{}, fmt.Errorf("arrival at s%d references op %d of %d", srv, rt.Op, n)
			}
		}
	}

	deliver := func() {
		for srv := 1; srv <= len(sc.Servers); srv++ {
			for order := sc.Arrival[srv]; cursor[srv] < len(order); cursor[srv]++ {
				rt := order[cursor[srv]]
				if rt.Round > started[rt.Op] {
					if stalled[rt.Op] {
						continue // never sent: it holds no place in the channel
					}
					break // not sent yet: everything behind it waits too
				}
				reply := c.request(msg{op: ids[rt.Op], round: rt.Round, srv: srv})
				if reply.payload != nil && !c.reply(reply) {
					received(rt.Op, rt.Round, register.Reply{From: types.Server(srv), Msg: reply.payload})
				}
			}
		}
	}

	for pos, rt := range sc.Global {
		i := rt.Op
		switch {
		case i < 0 || i >= n:
			return nil, history.History{}, fmt.Errorf("global[%d] references op %d of %d", pos, i, n)
		case started[i] > 0 && c.runs[ids[i]].col.Done():
			return nil, history.History{}, fmt.Errorf("op %d starts round %d after it responded", i, rt.Round)
		case stalled[i]:
			continue
		case rt.Round == 1 && started[i] == 0:
			ids[i] = c.invoke(vclock.Time(pos*1000+i+1), sc.Ops[i], uint64(i+1))
		case rt.Round == 1:
			return nil, history.History{}, fmt.Errorf("op %d starts round 1 twice", i)
		case rt.Round != started[i]+1:
			return nil, history.History{}, fmt.Errorf("op %d starts round %d out of order", i, rt.Round)
		case c.runs[ids[i]].col.Round() != rt.Round:
			// The previous round never reached its Need: the client is
			// still waiting, so this and every later round never start.
			stalled[i] = true
			continue
		}
		started[i] = rt.Round
		deliver()
		for i, id := range ids {
			if started[i] == 0 {
				continue
			}
			o := &c.runs[id].col
			if o.Done() || o.Round() != started[i] || !o.Ready() {
				continue
			}
			slices.SortFunc(o.Replies(), func(a, b register.Reply) int { return cmp.Compare(a.From.Index, b.From.Index) })
			received(i, o.Round(), o.Replies()...)
			c.complete(id, vclock.Time(pos*1000+500+i+1))
		}
	}

	for i, id := range ids {
		if started[i] == 0 {
			continue
		}
		o := &c.runs[id].col
		if !o.Done() && o.Round() == started[i] {
			received(i, o.Round(), o.Replies()...)
		}
		results[i].Value, results[i].Err = o.Result()
		results[i].Done = o.Done() && results[i].Err == nil
	}
	return results, c.history(), nil
}
