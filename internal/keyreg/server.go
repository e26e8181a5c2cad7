package keyreg

import (
	"strings"
	"sync"
	"sync/atomic"

	"fastreg/internal/proto"
	"fastreg/internal/register"
	"fastreg/internal/shard"
	"fastreg/internal/types"
)

// ServerState is one key's state at one replica: the protocol's server
// logic plus the eviction bookkeeping a TTL sweep needs — the epoch of
// the key's most recent request, and the operations observed mid-flight
// (an operation between its query and its follow-up round; evicting then
// would reset server state under a live operation).
type ServerState struct {
	Logic     register.ServerLogic
	lastEpoch int64
	handled   int64    // requests Touch has seen for this key
	open      []openOp // mid-flight ops: one per live client identity, plus abandoned ones until Sweep ages them out
}

// Handled reports how many requests this replica has handled for the key
// (maintained by Touch; callers hold the shard lock). Fault-injection
// harnesses key deterministic misbehavior off it.
func (sk *ServerState) Handled() int64 { return sk.handled }

// openOp names one client operation from the replica's point of view,
// with the epoch it was last seen in.
type openOp struct {
	client types.ProcID
	opID   uint64
	epoch  int64
}

// Touch stamps the key into the current epoch and maintains the
// mid-flight set. An operation is provably mid-flight only after a Query
// or a TagQuery below the protocol's final round: every protocol follows
// such a query with another round (a write's update, a read's write-back
// or next query), so the entry is guaranteed a closing request — any later round
// at the protocol's max, or an update, closes it. Requests that may
// already be an operation's only round (FastReads, direct updates,
// final-round queries like FullInfo's) never open records, so
// mixed-round protocols (W2R1's one-round reads, FullInfo's
// FastRead-then-query reads) cannot leak per-operation state; for their
// multi-round shapes the TTL's two-full-windows idle requirement is the
// safety margin. Only crashed clients leave entries behind; Sweep ages
// those out. Callers hold the shard lock.
func (sk *ServerState) Touch(env proto.Envelope, epoch int64, maxRounds int) {
	sk.lastEpoch = epoch
	sk.handled++
	if maxRounds <= 1 {
		return
	}
	k := env.Payload.Kind()
	opening := (k == proto.KindQuery || k == proto.KindTagQuery) && int(env.Round) < maxRounds
	for i := range sk.open {
		if sk.open[i].client != env.From || sk.open[i].opID != env.OpID {
			continue
		}
		if opening {
			sk.open[i].epoch = epoch
		} else { // swap-remove: order is irrelevant, capacity is kept
			last := len(sk.open) - 1
			sk.open[i] = sk.open[last]
			sk.open = sk.open[:last]
		}
		return
	}
	if opening {
		sk.open = append(sk.open, openOp{client: env.From, opID: env.OpID, epoch: epoch})
	}
}

// ServerShard is one shard of a replica's key space. Its mutex both
// guards the map and serializes Handle per key — a key lives in exactly
// one shard, so holding the lock across a batch run gives the
// single-threaded server state the protocols' model requires while
// letting distinct shards proceed in parallel. Callers take Lock, run
// GetLocked and the protocol Handles, then Unlock.
type ServerShard struct {
	reg *ServerRegistry

	mu sync.Mutex
	m  map[string]*ServerState // guardedby: mu
}

// Lock acquires the shard.
func (sh *ServerShard) Lock() { sh.mu.Lock() }

// Unlock releases the shard.
func (sh *ServerShard) Unlock() { sh.mu.Unlock() }

// GetLocked returns the key's state, instantiating the protocol's server
// logic on first touch. The caller holds the shard lock. The map keeps a
// clone of key: a decoded key is cut from its whole frame (proto.Decode),
// which it would otherwise keep alive for the key's lifetime.
func (sh *ServerShard) GetLocked(key string) *ServerState {
	st, ok := sh.m[key]
	if !ok {
		st = &ServerState{Logic: sh.reg.mk()}
		sh.m[strings.Clone(key)] = st
	}
	return st
}

// ServerRegistry is one replica's sharded key → server-logic map — the
// state behind a transport.Server, created lazily from the protocol
// factory.
type ServerRegistry struct {
	nshards int
	mk      func() register.ServerLogic
	epoch   atomic.Int64
	shards  []*ServerShard
}

// NewServerRegistry creates an empty registry with n shards (n ≤ 0 picks
// shard.Default); mk instantiates the protocol's server logic for a new
// key (it closes over the replica's identity and cluster shape).
func NewServerRegistry(n int, mk func() register.ServerLogic) *ServerRegistry {
	if n <= 0 {
		n = shard.Default
	}
	r := &ServerRegistry{nshards: n, mk: mk, shards: make([]*ServerShard, n)}
	for i := range r.shards {
		r.shards[i] = &ServerShard{reg: r, m: make(map[string]*ServerState)}
	}
	return r
}

// NumShards returns the shard count.
func (r *ServerRegistry) NumShards() int { return r.nshards }

// ShardIndex maps a key to its shard (the shared shard.Index partition).
func (r *ServerRegistry) ShardIndex(key string) int { return shard.Index(key, r.nshards) }

// Shard returns shard i for locked batch processing.
func (r *ServerRegistry) Shard(i int) *ServerShard { return r.shards[i] }

// Epoch returns the current eviction epoch (Sweep advances it); handlers
// pass it to Touch.
func (r *ServerRegistry) Epoch() int64 { return r.epoch.Load() }

// Value inspects the replica's stored value for key (tests and tooling;
// protocol code never calls it). ok is false when the key was never
// touched here.
func (r *ServerRegistry) Value(key string) (types.Value, bool) {
	sh := r.shards[r.ShardIndex(key)]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	st, ok := sh.m[key]
	if !ok {
		return types.Value{}, false
	}
	return st.Logic.CurrentValue(), true
}

// KeyCount reports how many keys the replica holds state for.
func (r *ServerRegistry) KeyCount() int {
	n := 0
	for _, sh := range r.shards {
		sh.mu.Lock()
		n += len(sh.m)
		sh.mu.Unlock()
	}
	return n
}

// Sweep advances the eviction epoch and evicts every key untouched for a
// full epoch that has no operation mid-flight, deleting its protocol
// state under the shard lock (so no Handle can interleave). Mid-flight
// records older than the idle window are dropped as abandoned (their
// client crashed or timed out). Returns the number of keys evicted.
func (r *ServerRegistry) Sweep() int {
	cutoff := r.epoch.Add(1) - 2
	evicted := 0
	for _, sh := range r.shards {
		sh.mu.Lock()
		for key, sk := range sh.m {
			// Prune abandoned mid-flight records on every sweep — hot keys
			// included — so crashed clients can't pin entries forever.
			// Records get one window beyond the key's own idle eviction
			// point before being written off as crashed: a live
			// multi-round operation must never lose server state between
			// its rounds.
			kept := sk.open[:0]
			for _, o := range sk.open {
				if o.epoch >= cutoff {
					kept = append(kept, o)
				}
			}
			sk.open = kept
			if len(kept) > 0 || sk.lastEpoch > cutoff {
				continue
			}
			delete(sh.m, key)
			evicted++
		}
		sh.mu.Unlock()
	}
	return evicted
}
