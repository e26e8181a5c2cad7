package opkit

import (
	"fastreg/internal/proto"
	"fastreg/internal/register"
	"fastreg/internal/types"
)

// NewMaxFloorServer is the dead-value floor's mutant: a VectorServer whose
// floor is the maximum over the readers instead of the minimum, so the
// fastest reader's progress kills values a slower reader can still
// return. The differential test must tell it from Algorithm 2.
func NewMaxFloorServer(id types.ProcID, readers int) register.ServerLogic {
	return maxFloorServer{NewVectorServer(id, readers)}
}

type maxFloorServer struct{ *VectorServer }

// Handle raises every reader's record, and the floor, to the largest tag
// any reader has sent, then lets the server handle the request.
func (s maxFloorServer) Handle(from types.ProcID, m proto.Message) proto.Message {
	if req, ok := m.(*proto.FastRead); ok && s.seen != nil {
		top := s.floor
		for _, v := range req.ValQueue {
			top = maxTag(top, v.Tag)
		}
		for _, t := range s.seen {
			top = maxTag(top, t)
		}
		for i := range s.seen {
			s.seen[i] = top
		}
		s.floor = top
	}
	return s.VectorServer.Handle(from, m)
}

func maxTag(a, b types.Tag) types.Tag {
	if a.Less(b) {
		return b
	}
	return a
}

// published is the reply the replica will send to its next FastRead that
// changes nothing: the message publish last boxed.
func (s *VectorServer) published() proto.FastReadAck { return s.ack.(proto.FastReadAck) }
