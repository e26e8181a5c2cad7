package transport

import (
	"fmt"
	"time"
)

// ReadyTokens counts the tokens sent so far on the ready channels of the
// client's operations: each one wakes an operation's goroutine.
func (c *Client) ReadyTokens() uint64 {
	var n uint64
	for _, ps := range c.pending {
		ps.mu.Lock()
		n += ps.wakes
		ps.mu.Unlock()
	}
	return n
}

// checkRecycled takes one recycled execScratch out of the client's pool,
// if there is one, and holds it for hold: a scratch in the pool belongs
// to no operation, so no token or reply may reach it, then or while it
// is held. It puts the scratch back and reports whether it checked one.
func (c *Client) checkRecycled(hold time.Duration) (bool, error) {
	v := c.scratch.Get()
	if v == nil {
		return false, nil
	}
	sc := v.(*execScratch)
	defer c.scratch.Put(sc)
	check := func(when string) error {
		pr := &sc.pr
		if len(pr.ready) != 0 || len(pr.col.Replies()) != 0 || pr.col.Done() || pr.col.Op() != nil || pr.otr != nil {
			return fmt.Errorf("recycled scratch %s: %d tokens, %d replies, done=%v, op=%v", when, len(pr.ready), len(pr.col.Replies()), pr.col.Done(), pr.col.Op())
		}
		return nil
	}
	if err := check("when taken"); err != nil {
		return true, err
	}
	time.Sleep(hold)
	return true, check("after " + hold.String())
}
