// Fixture for the pooledalias analyzer: pooled-slab ownership. The
// broken cases are deliberate copies of patterns from
// internal/transport with the consume point misplaced.
package fixture

import (
	"io"

	"fastreg/internal/proto"
)

type conn struct{}

func (conn) SendBatch(envs []proto.Envelope) error { return nil }

func sink(proto.Envelope)  {}
func sinkBuf([]byte)       {}
func give() proto.Envelope { return proto.Envelope{} }

// useAfterPut is the basic violation: read after pool return.
func useAfterPut() {
	envs := proto.GetEnvs()
	envs = append(envs, give())
	proto.PutEnvs(envs)
	sink(envs[0]) // want "use of envs after proto.PutEnvs consumed it"
}

// returnAfterPut leaks the recycled slab to the caller.
func returnAfterPut() []proto.Envelope {
	envs := proto.GetEnvs()
	proto.PutEnvs(envs)
	return envs // want "use of envs after proto.PutEnvs consumed it"
}

// useAfterSend violates the SendBatch ownership transfer.
func useAfterSend(c conn) {
	batch := proto.GetEnvs()
	batch = append(batch, give())
	_ = c.SendBatch(batch)
	sink(batch[0]) // want "use of batch after SendBatch consumed it"
}

// decodeAliasEscape reproduces the Decode no-alias contract: the
// envelopes decoded into a pooled slab must not be read once the slab
// is back in the pool — DecodeBatchInto aliases dst.
func decodeAliasEscape(frame []byte) proto.Envelope {
	envs, _, err := proto.DecodeBatchInto(proto.GetEnvs(), frame)
	if err != nil {
		return proto.Envelope{}
	}
	first := envs[0]
	proto.PutEnvs(envs)
	sink(envs[0]) // want "use of envs after proto.PutEnvs consumed it"
	return first
}

// putBufThenRead covers the byte-slab pool.
func putBufThenRead() {
	buf := proto.GetBuf()
	buf = append(buf, 1)
	proto.PutBuf(buf)
	sinkBuf(buf) // want "use of buf after proto.PutBuf consumed it"
}

// flushLoopPattern is the clean shape from transport.Client.flushLoop:
// the error path recycles and continues; the success path sends. The
// two never alias on one path, so nothing is flagged.
func flushLoopPattern(c conn, tries int) {
	for i := 0; i < tries; i++ {
		batch := proto.GetEnvs()
		batch = append(batch, give())
		if len(batch) == 0 {
			proto.PutEnvs(batch)
			continue
		}
		_ = c.SendBatch(batch)
	}
}

// reassignRearms: a fresh slice re-arms the variable.
func reassignRearms() {
	envs := proto.GetEnvs()
	proto.PutEnvs(envs)
	envs = proto.GetEnvs()
	sink(envs[0])
	proto.PutEnvs(envs)
}

// deferredPut is the ReadFramesInto shape: the deferred release runs
// at function exit, after every use.
func deferredPut(r io.Reader) error {
	buf := proto.GetBuf()
	defer func() { proto.PutBuf(buf) }()
	if _, err := r.Read(buf[:cap(buf)]); err != nil {
		return err
	}
	sinkBuf(buf)
	return nil
}

// recvLoopPattern is the clean shape from transport recvLoop: recycle
// at the bottom, redefine at the top of the next iteration.
func recvLoopPattern(frames [][]byte) {
	for _, frame := range frames {
		envs, _, err := proto.DecodeBatchInto(proto.GetEnvs(), frame)
		if err != nil {
			return
		}
		for _, env := range envs {
			sink(env)
		}
		proto.PutEnvs(envs)
	}
}

// deliver is an annotated consumer, like netsim's wireConn.SendBatch.
//
//lint:consumes replies
func deliver(replies []proto.Envelope) { proto.PutEnvs(replies) }

func useAfterDeliver() {
	replies := proto.GetEnvs()
	deliver(replies)
	sink(replies[0]) // want "use of replies after deliver consumed it"
}

// suppressed shows the auditable escape hatch: the driver counts it.
func suppressed() {
	envs := proto.GetEnvs()
	proto.PutEnvs(envs)
	//lint:ignore pooledalias fixture exercises the suppression path
	sink(envs[0])
}
