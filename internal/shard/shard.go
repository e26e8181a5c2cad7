// Package shard is the single definition of the key → shard partition
// used on both sides of the system, the transport layer's Server and
// Client. One definition keeps the invariant — a key lives at the same shard index everywhere
// — true by construction.
package shard

// Default is the shard count runtimes use unless configured otherwise.
const Default = 16

// Index maps a key to a shard in [0, shards). FNV-1a, inlined to keep
// the hot path allocation-free.
func Index(key string, shards int) int {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= prime32
	}
	return int(h % uint32(shards))
}
