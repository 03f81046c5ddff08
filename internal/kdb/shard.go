package kdb

// Shard routing. The principal space is split by FNV-1a hash of
// ID(name, instance) into a fixed number of shards. The hash is computed
// inline over the two components with the separator the ID would carry
// (hashPair), so routing never materializes the joined string — a shard
// lookup on the KDC request path allocates nothing.

// ShardIndex returns the shard a (name, instance) principal belongs to
// among n shards. n must be ≥ 1; with n == 1 the answer is always 0.
func ShardIndex(name, instance string, n int) int {
	if n <= 1 {
		return 0
	}
	return int(hashPair(name, instance) % uint64(n))
}
