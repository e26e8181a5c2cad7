// Fixture for the captureorder analyzer: durable-before-visible. The
// clean functions mirror transport.Server.handleReqs and the gated
// capture hook shape; the broken ones emit replies before
// the capture flush — the ordering that lets a crash forge history.
package fixture

import "fastreg/internal/proto"

type conn struct{}

func (conn) SendBatch(envs []proto.Envelope) error { return nil }

type request struct {
	env   proto.Envelope
	reply chan proto.Envelope
}

type server struct {
	capture func(req, rep proto.Envelope)
	c       conn
}

// goodOrder flushes the capture hook before emitting.
func goodOrder(s *server, reqs []request, replies []proto.Envelope) {
	for i, r := range reqs {
		s.capture(r.env, replies[i])
	}
	_ = s.c.SendBatch(replies)
}

// conditionalCapture is the gated-hook shape: the hook is gated on
// configuration; the join after the gate still precedes every send.
func conditionalCapture(s *server, reqs []request, replies []proto.Envelope) {
	if s.capture != nil {
		for i, r := range reqs {
			s.capture(r.env, replies[i])
		}
	}
	for i, r := range reqs {
		r.reply <- replies[i]
	}
}

// emitBeforeFlush sends the batch before the audit flush: a crash
// between the two forges history.
func emitBeforeFlush(s *server, reqs []request, replies []proto.Envelope) {
	_ = s.c.SendBatch(replies) // want "not dominated by the capture flush"
	for i, r := range reqs {
		s.capture(r.env, replies[i])
	}
}

// earlyReply leaks one reply past the gate on the fast path.
func earlyReply(s *server, reqs []request, replies []proto.Envelope, fast bool) {
	if fast && len(reqs) > 0 {
		reqs[0].reply <- replies[0] // want "not dominated by the capture flush"
	}
	if s.capture != nil {
		for i, r := range reqs {
			s.capture(r.env, replies[i])
		}
	}
	for i, r := range reqs {
		r.reply <- replies[i]
	}
}

// handleReqs returns the replies for the caller to emit, so the
// annotation makes every return part of the contract.
//
//lint:captureflush
func handleReqs(s *server, reqs []request, replies []proto.Envelope) []proto.Envelope {
	for i, r := range reqs {
		s.capture(r.env, replies[i])
	}
	return replies
}

// returnBeforeFlush sneaks a return out before flushing.
//
//lint:captureflush
func returnBeforeFlush(s *server, reqs []request, replies []proto.Envelope) []proto.Envelope {
	if len(reqs) == 0 {
		return replies // want "not dominated by the capture flush"
	}
	for i, r := range reqs {
		s.capture(r.env, replies[i])
	}
	return replies
}

// annotatedWithoutHook claims to flush but never does.
//
//lint:captureflush
func annotatedWithoutHook(s *server, replies []proto.Envelope) []proto.Envelope { // want "contains no capture hook call"
	return replies
}
