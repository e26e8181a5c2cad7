package model

import (
	"testing"

	"fastreg/internal/opkit"
	"fastreg/internal/register"
	"fastreg/internal/types"
	"fastreg/internal/vclock"
)

// TestReplyCountsOncePerServer drives the reply step directly: neither
// scheduler delivers one reply twice, but the step must count a server
// once per round however often its reply arrives, as the live round
// engine's resends make it arrive.
func TestReplyCountsOncePerServer(t *testing.T) {
	servers := make([]register.ServerLogic, 3)
	for i := range servers {
		servers[i] = opkit.NewStoreServer(types.Server(i + 1))
	}
	c := newCore(servers, &vclock.Clock{})
	v := types.Value{Tag: types.Tag{TS: 1, WID: types.Writer(1)}, Data: "a"}
	id := c.invoke(0, opkit.NewDirectWrite(types.Writer(1), v, 2), 1)
	reply := c.request(msg{op: id, round: 1, srv: 1})
	if !c.reply(reply) {
		t.Fatal("the first reply from s1 was not counted")
	}
	if c.reply(reply) {
		t.Fatal("a second reply from s1 was counted")
	}
	if o := &c.runs[id].col; o.Ready() {
		t.Fatalf("round ready on %d replies from one server, Need %d", len(o.Replies()), o.Need())
	}
}
