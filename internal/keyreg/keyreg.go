// Package keyreg is the single implementation of the sharded per-key
// state registries the transport layer's Client and Server keep:
//
//   - client side: per key, the protocol's writer/reader state machines,
//     per-client operation counters and the key's history recorder,
//     lazily created under a shard lock;
//   - server side: one replica's lazily-instantiated register.ServerLogic
//     per key, with the shard mutex doubling as the per-key Handle
//     serializer the protocols' model requires.
//
// Both carry the eviction bookkeeping (epochs, active operations,
// mid-flight operation records) their TTL sweeps need. The partition is
// always shard.Index, so a key lives at the same shard index in every
// registry of a deployment — the invariant the batching paths rely on.
package keyreg

import (
	"sort"
	"sync"
	"sync/atomic"

	"fastreg/internal/history"
	"fastreg/internal/quorum"
	"fastreg/internal/register"
	"fastreg/internal/shard"
	"fastreg/internal/types"
	"fastreg/internal/vclock"
)

// ClientState is everything client-side that exists once per key: the
// writer/reader protocol state machines (they carry persistent local
// state across operations, e.g. the ABD timestamp counter or Algorithm
// 1's valQueue), per-client operation counters, and the key's history
// recorder with its own clock domain.
//
// Active is the eviction bookkeeping: it counts operations between
// acquire and release, and a key is evictable only when it is zero and
// its last acquire is a full epoch old.
//
// Identities index the per-client state by ProcID.Index − 1, so a lookup
// hashes nothing. Each slice is made once, at its full size from the
// cluster shape, the first time it is used: writers holds cfg.W slots,
// readers cfg.R, and opSeq cfg.W + cfg.R (writer w_i at i − 1, reader r_i
// at cfg.W + i − 1).
type ClientState struct {
	mu      sync.Mutex
	writers []register.Writer // guardedby: mu
	readers []register.Reader // guardedby: mu
	opSeq   []uint64          // guardedby: mu
	rec     *history.Recorder

	Active atomic.Int64

	// Per-key workload counters, maintained always (two uncontended atomic
	// adds per operation — cheaper than gating them): the read/write mix
	// and how often operations overlapped on the key. These are the
	// signals the planned adaptive protocol selection needs, surfaced
	// today through ClientRegistry.KeyStats and Store.Stats.
	ReadOps   atomic.Int64
	WriteOps  atomic.Int64
	Contended atomic.Int64

	// lastEpoch is the sweep epoch of the most recent Acquire; guarded by
	// the owning shard's lock.
	lastEpoch int64
}

// Recorder returns the key's history recorder.
func (st *ClientState) Recorder() *history.Recorder { return st.rec }

// Writer returns the key's writer state machine for id, creating it from
// the protocol on first use. id must be a writer in [1, cfg.W].
func (st *ClientState) Writer(id types.ProcID, p register.Protocol, cfg quorum.Config) register.Writer {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.writers == nil {
		st.writers = make([]register.Writer, cfg.W)
	}
	w := st.writers[id.Index-1]
	if w == nil {
		w = p.NewWriter(id, cfg)
		st.writers[id.Index-1] = w
	}
	return w
}

// Reader returns the key's reader state machine for id, creating it from
// the protocol on first use. id must be a reader in [1, cfg.R].
func (st *ClientState) Reader(id types.ProcID, p register.Protocol, cfg quorum.Config) register.Reader {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.readers == nil {
		st.readers = make([]register.Reader, cfg.R)
	}
	r := st.readers[id.Index-1]
	if r == nil {
		r = p.NewReader(id, cfg)
		st.readers[id.Index-1] = r
	}
	return r
}

// NextOpID issues the client's next per-key operation sequence number.
// client must be a writer in [1, cfg.W] or a reader in [1, cfg.R]. Each
// client is sequential per key (well-formed histories), so the lock only
// arbitrates cross-client access.
func (st *ClientState) NextOpID(client types.ProcID, cfg quorum.Config) uint64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.opSeq == nil {
		st.opSeq = make([]uint64, cfg.W+cfg.R)
	}
	i := client.Index - 1
	if client.Role == types.RoleReader {
		i += cfg.W
	}
	st.opSeq[i]++
	return st.opSeq[i]
}

// clientShard is one shard of the client registry.
type clientShard struct {
	mu sync.Mutex
	m  map[string]*ClientState // guardedby: mu
}

// ClientRegistry is the sharded per-key client-side registry. It owns the
// eviction epoch: Sweep advances it, Acquire stamps it.
type ClientRegistry struct {
	nshards int
	epoch   atomic.Int64
	shards  []*clientShard

	// capture, when set, is installed as the sink of every key's history
	// recorder: it observes each operation the moment it responds, keyed
	// by the register it ran against. Atomic so SetCapture is safe even
	// against a registry already serving operations (ops that respond
	// before installation are simply not captured).
	capture atomic.Pointer[func(key string, op history.Op)]
}

// NewClientRegistry creates an empty registry with n shards (n ≤ 0 picks
// shard.Default).
func NewClientRegistry(n int) *ClientRegistry {
	if n <= 0 {
		n = shard.Default
	}
	r := &ClientRegistry{nshards: n, shards: make([]*clientShard, n)}
	for i := range r.shards {
		r.shards[i] = &clientShard{m: make(map[string]*ClientState)}
	}
	return r
}

// SetCapture installs an operation-capture sink: fn observes every
// operation of every key the moment it responds (see
// history.Recorder.SetSink for the callback contract). The audit layer
// uses it to stream completed ops into a trace log. The hook is wired
// into each key's recorder as the key is first acquired; existing keys'
// recorders are updated here under their shard lock. Installation is
// safe against a registry already in use, but call it before the first
// operation for complete logs — ops that respond first are not
// re-delivered.
func (r *ClientRegistry) SetCapture(fn func(key string, op history.Op)) {
	r.capture.Store(&fn)
	for _, sh := range r.shards {
		sh.mu.Lock()
		for key, st := range sh.m {
			key := key
			st.rec.SetSink(func(op history.Op) { fn(key, op) })
		}
		sh.mu.Unlock()
	}
}

// NumShards returns the shard count.
func (r *ClientRegistry) NumShards() int { return r.nshards }

// ShardIndex maps a key to its shard (the shared shard.Index partition).
func (r *ClientRegistry) ShardIndex(key string) int { return shard.Index(key, r.nshards) }

// Acquire returns the key's state, creating it on first touch, with the
// key stamped into the current eviction epoch and one in-flight operation
// registered — the caller must Release when the operation finishes.
// Holding the shard lock for the lookup+register makes acquisition atomic
// against Sweep.
func (r *ClientRegistry) Acquire(key string) *ClientState {
	sh := r.shards[r.ShardIndex(key)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st, ok := sh.m[key]
	if !ok {
		st = &ClientState{rec: history.NewRecorder(&vclock.Clock{})}
		if fnp := r.capture.Load(); fnp != nil {
			fn := *fnp
			st.rec.SetSink(func(op history.Op) { fn(key, op) })
		}
		sh.m[key] = st
	}
	st.lastEpoch = r.epoch.Load()
	if st.Active.Add(1) > 1 {
		// Another operation is already live on this key: record the
		// overlap. Counted once per joining operation, which makes the
		// counter a lower bound on pairwise overlaps — sufficient as a
		// contention signal.
		st.Contended.Add(1)
	}
	return st
}

// Release retires the in-flight operation Acquire registered.
func (r *ClientRegistry) Release(st *ClientState) { st.Active.Add(-1) }

// History returns the execution recorded so far for one key.
func (r *ClientRegistry) History(key string) history.History {
	sh := r.shards[r.ShardIndex(key)]
	sh.mu.Lock()
	st, ok := sh.m[key]
	sh.mu.Unlock()
	if !ok {
		return history.History{}
	}
	return st.rec.History()
}

// Histories returns a snapshot of every key's recorded execution.
func (r *ClientRegistry) Histories() map[string]history.History {
	out := make(map[string]history.History)
	for _, sh := range r.shards {
		sh.mu.Lock()
		states := make(map[string]*ClientState, len(sh.m))
		for k, st := range sh.m {
			states[k] = st
		}
		sh.mu.Unlock()
		for k, st := range states {
			out[k] = st.rec.History()
		}
	}
	return out
}

// Keys returns the keys touched so far, sorted.
func (r *ClientRegistry) Keys() []string {
	var out []string
	for _, sh := range r.shards {
		sh.mu.Lock()
		for k := range sh.m {
			out = append(out, k)
		}
		sh.mu.Unlock()
	}
	sort.Strings(out)
	return out
}

// KeyStats is one key's workload profile: completed operation counts by
// kind and the number of operations that found another already live on
// the key when they started.
type KeyStats struct {
	Key       string
	Reads     int64
	Writes    int64
	Contended int64
}

// KeyStats returns every live key's workload profile, sorted by key.
func (r *ClientRegistry) KeyStats() []KeyStats {
	var out []KeyStats
	for _, sh := range r.shards {
		sh.mu.Lock()
		for k, st := range sh.m {
			out = append(out, KeyStats{
				Key:       k,
				Reads:     st.ReadOps.Load(),
				Writes:    st.WriteOps.Load(),
				Contended: st.Contended.Load(),
			})
		}
		sh.mu.Unlock()
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// Sweep advances the eviction epoch and evicts every key that has no
// operation in flight and was untouched for a full epoch, under the key's
// shard lock (Acquire needs the same lock, so no operation can slip in).
// Returns the number of keys evicted.
func (r *ClientRegistry) Sweep() int {
	cutoff := r.epoch.Add(1) - 2
	evicted := 0
	for _, sh := range r.shards {
		sh.mu.Lock()
		for key, st := range sh.m {
			if st.Active.Load() != 0 || st.lastEpoch > cutoff {
				continue
			}
			delete(sh.m, key)
			evicted++
		}
		sh.mu.Unlock()
	}
	return evicted
}
