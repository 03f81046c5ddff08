// Package replay implements the server-side replay detection of §4.3:
// "The server is also allowed to keep track of all past requests with
// time stamps that are still valid. In order to further foil replay
// attacks, a request received with the same ticket and time stamp as one
// already received can be discarded."
//
// The cache is sharded: each authenticator hashes to one of shardCount
// independently locked shards, so concurrent requests only contend when
// they land on the same shard. Expiry is incremental — each check retires
// at most a few expired entries from its own shard's FIFO queue — so no
// request ever waits behind a full-map sweep, and a busy shard never
// blocks an unrelated one.
//
// Entries are fixed-size and pointer-free apart from a remembered reply:
// the client's name, instance and realm are folded into a keyed 64-bit
// fingerprint, so the cache never retains the decoded name strings.
package replay

import (
	"encoding/binary"
	"hash/maphash"
	"sync"
	"time"

	"kerberos/internal/core"
	"kerberos/internal/obs"
)

// shardCount is the number of independently locked shards. A power of
// two well above typical core counts keeps collision odds low.
const shardCount = 16

// sweepBatch bounds how many expired entries one check may retire, so
// expiry cost is amortized across requests instead of spiking on one.
const sweepBatch = 8

// shrinkMin is the smallest peak population a shard rebuilds its map
// and queue down from; below it the retained memory is not worth a copy.
const shrinkMin = 1024

// key identifies one seen authenticator in 24 pointer-free bytes. who
// is a keyed hash of the client's name, instance and realm (see
// Cache.keyOf); the other fields are the authenticator's own. A true
// replay always maps to the same key, so no replay is ever accepted; a
// false duplicate needs two principals with equal time, microseconds and
// checksum and a collision of the 64-bit keyed hash. Timestamps outside
// the clock skew window are rejected before they reach the cache, so
// entries only need to live for the skew window.
type key struct {
	who      uint64
	time     core.KerberosTime
	microSec uint32
	checksum uint32
}

// expiring is one FIFO-queue element: a key and the last instant it
// must be held, in Unix nanoseconds. Expiry times come from the
// caller's now at insert, so the queue is ordered while that clock runs
// forward; if it steps back, sweeps stop at the later front entry and
// the entries behind it live longer, never shorter.
type expiring struct {
	k      key
	expiry int64
}

// entry is what the cache remembers per authenticator: the expiry
// deadline, plus (optionally) the reply the server sent — so a
// retransmitted request can be answered idempotently instead of being
// rejected as a replay. A genuine attacker replaying a captured
// authenticator from a different request body still gains nothing: it
// only ever receives a byte-identical copy of a reply already sent to
// the legitimate client, sealed in keys the attacker lacks.
//
// The deadline is Unix nanoseconds of the caller's now: the wall clock
// the ±5 min skew check reads. A monotonic deadline would let a
// skew-valid authenticator outlive its entry after the wall clock steps
// back.
type entry struct {
	deadline int64
	digest   uint64 // Digest of the full request the reply answers
	reply    []byte // nil until Remember attaches the server's answer
}

// live reports whether an entry with the given deadline still guards
// its authenticator at now. The deadline itself is inclusive: the skew
// check accepts both ends of its ±ClockSkew range, so an authenticator
// first accepted ClockSkew early is still skew-valid exactly one window
// later and must still be held then. SeenWithReply, Remember and sweep
// all decide through this one comparison.
func live(now, deadline int64) bool { return now <= deadline }

// shard is one lock domain: the seen map plus the FIFO expiry queue.
type shard struct {
	mu    sync.Mutex
	seen  map[key]entry // value: expiry deadline plus remembered reply
	queue []expiring    // insertion-ordered expiry schedule
	head  int           // index of the oldest queue element
	peak  int           // largest len(seen) since seen was last allocated
}

// Metrics counts cache activity. All fields are lock-free; a scrape
// never takes a shard lock.
type Metrics struct {
	Checks     obs.Counter // presentations examined (Seen/SeenWithReply)
	Hits       obs.Counter // duplicates detected within the window
	Memoized   obs.Counter // duplicates answered with a remembered reply
	Remembered obs.Counter // replies attached for idempotent retransmits
	Swept      obs.Counter // expired entries retired by incremental sweeps
}

// Cache remembers recently seen authenticators. It is safe for
// concurrent use. The zero value is not usable; call New.
type Cache struct {
	window  time.Duration
	seed    maphash.Seed // keys Cache.keyOf's principal fingerprint
	metrics Metrics
	shards  [shardCount]shard
}

// New creates a cache holding authenticators for the full replay window
// (twice the clock skew: an authenticator can be at most ClockSkew old or
// ClockSkew in the future when first accepted).
func New() *Cache {
	c := &Cache{window: 2 * core.ClockSkew, seed: maphash.MakeSeed()}
	for i := range c.shards {
		c.shards[i].seen = make(map[key]entry)
	}
	return c
}

// Metrics exposes the cache's activity counters.
func (c *Cache) Metrics() *Metrics { return &c.metrics }

// RegisterMetrics publishes the cache's counters — and a derived gauge
// for the current entry count — on reg under the given prefix (e.g.
// "kdc_replay" yields kdc_replay_checks, kdc_replay_entries, ...).
func (c *Cache) RegisterMetrics(reg *obs.Registry, prefix string) {
	if reg == nil {
		return
	}
	reg.RegisterCounter(prefix+"_checks", &c.metrics.Checks)
	reg.RegisterCounter(prefix+"_hits", &c.metrics.Hits)
	reg.RegisterCounter(prefix+"_memoized", &c.metrics.Memoized)
	reg.RegisterCounter(prefix+"_remembered", &c.metrics.Remembered)
	reg.RegisterCounter(prefix+"_swept", &c.metrics.Swept)
	reg.GaugeFunc(prefix+"_entries", func() int64 { return int64(c.Len()) })
}

// keyOf builds the lookup key for an authenticator without allocating.
// Each principal component is hashed length-prefixed, so the encoding
// is injective: {"ab","c"} and {"a","bc"} hash different inputs. The
// per-Cache random seed keeps the fingerprints unpredictable to clients
// choosing names.
func (c *Cache) keyOf(auth *core.Authenticator) key {
	// 128 bytes hold three 40-byte components, Kerberos v4's limits, so
	// the buffer stays on the stack; longer names cost one allocation.
	b := make([]byte, 0, 128)
	b = appendField(b, auth.Client.Name)
	b = appendField(b, auth.Client.Instance)
	b = appendField(b, auth.Client.Realm)
	return key{
		who:      maphash.Bytes(c.seed, b),
		time:     auth.Time,
		microSec: auth.MicroSec,
		checksum: auth.Checksum,
	}
}

// appendField appends s to b behind its uvarint length.
func appendField(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// fnvString folds s into an FNV-1a hash without converting to []byte.
func fnvString(h uint32, s string) uint32 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint32(s[i])) * 16777619
	}
	return h
}

// fnvUint32 folds v into an FNV-1a hash byte by byte (whole-word
// folding cancels when correlated fields are XORed in sequence).
func fnvUint32(h, v uint32) uint32 {
	h = (h ^ (v & 0xff)) * 16777619
	h = (h ^ (v >> 8 & 0xff)) * 16777619
	h = (h ^ (v >> 16 & 0xff)) * 16777619
	h = (h ^ (v >> 24)) * 16777619
	return h
}

// shardIndex hashes an authenticator's exact fields to its shard. It is
// unseeded on purpose: which entries share a shard decides which ones a
// sweep retires, so a seeded index would make Len, and every simulation
// that reports it, vary from run to run. A final avalanche step spreads
// entropy into the low bits the modulo keeps.
func shardIndex(auth *core.Authenticator) int {
	h := uint32(2166136261)
	h = fnvString(h, auth.Client.Name)
	h = fnvString(h, auth.Client.Instance)
	h = fnvString(h, auth.Client.Realm)
	h = fnvUint32(h, uint32(auth.Time))
	h = fnvUint32(h, auth.MicroSec)
	h = fnvUint32(h, auth.Checksum)
	h ^= h >> 16
	h *= 0x85ebca6b
	h ^= h >> 13
	return int(h % shardCount)
}

// sweep retires up to sweepBatch expired entries from the front of the
// shard's queue. Called with the shard locked. Because re-presentation
// after expiry re-inserts a key with a later deadline (and a new queue
// element), a queue element only deletes its key when the map still
// holds the deadline it was queued with.
func (s *shard) sweep(now int64) (swept int) {
	s.peak = max(s.peak, len(s.seen))
	for n := 0; n < sweepBatch && s.head < len(s.queue); n++ {
		e := &s.queue[s.head]
		if live(now, e.expiry) {
			break
		}
		if got, ok := s.seen[e.k]; ok && got.deadline == e.expiry {
			delete(s.seen, e.k)
			swept++
		}
		s.head++
	}
	if s.head == len(s.queue) {
		s.queue = s.queue[:0]
		s.head = 0
	} else if s.head > 1024 && s.head > len(s.queue)/2 {
		// Compact the consumed front so the queue does not grow without
		// bound across windows.
		s.queue = append(s.queue[:0], s.queue[s.head:]...)
		s.head = 0
	}
	if s.peak >= shrinkMin && len(s.seen) <= s.peak/4 {
		s.rebuild()
	}
	return swept
}

// rebuild reallocates the shard's map and queue at their current size.
// Go maps never shrink and the queue keeps its capacity, so without it
// a shard would hold its flood-peak memory forever. Rebuilding only
// after the population fell to a quarter of its peak keeps the copy
// amortized O(1) per retired entry. Order and contents are unchanged.
func (s *shard) rebuild() {
	seen := make(map[key]entry, len(s.seen))
	for k, e := range s.seen {
		seen[k] = e
	}
	s.seen = seen
	s.queue = append([]expiring(nil), s.queue[s.head:]...)
	s.head = 0
	s.peak = len(seen)
}

// Seen records the authenticator and reports whether it had been
// presented before within the replay window. The first presentation
// returns false; any identical presentation afterwards returns true.
//
//kerb:hotpath
func (c *Cache) Seen(auth *core.Authenticator, now time.Time) bool {
	_, dup := c.SeenWithReply(auth, 0, now)
	return dup
}

// Digest folds a full request message into the fingerprint that gates
// idempotent reply replay (FNV-1a 64). It is not cryptographic — the
// authenticator's sealed checksum provides the integrity — it only
// distinguishes "the same datagram again" from "the same authenticator
// stapled to a different request".
func Digest(msg []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, b := range msg {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return h
}

// SeenWithReply is Seen for idempotent request/reply servers: like
// Seen, but on a duplicate it also returns the reply previously
// attached via Remember — provided the full request digest matches the
// one the reply answered. A KDC uses this to answer a retransmitted
// ticket-granting request — byte-identical because the client resent
// the same datagram after losing the reply — with the original answer
// instead of a replay error, while still refusing both fresh work and
// any answer for a replayed authenticator stapled to a different
// request body.
func (c *Cache) SeenWithReply(auth *core.Authenticator, reqDigest uint64, now time.Time) ([]byte, bool) {
	c.metrics.Checks.Inc()
	k := c.keyOf(auth)
	s := &c.shards[shardIndex(auth)]
	ns := now.UnixNano()
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := s.sweep(ns); n > 0 {
		c.metrics.Swept.Add(uint64(n))
	}
	if got, dup := s.seen[k]; dup && live(ns, got.deadline) {
		c.metrics.Hits.Inc()
		if got.reply != nil && got.digest == reqDigest {
			c.metrics.Memoized.Inc()
			return got.reply, true
		}
		return nil, true
	}
	deadline := ns + int64(c.window)
	s.seen[k] = entry{deadline: deadline}
	s.queue = append(s.queue, expiring{k: k, expiry: deadline})
	return nil, false
}

// Remember attaches the server's reply (and the digest of the request
// it answers) to an authenticator the cache is already holding,
// making future byte-identical duplicates answerable idempotently. The
// reply slice is retained, not copied; callers must not mutate it
// afterwards. Unknown or expired authenticators are ignored.
func (c *Cache) Remember(auth *core.Authenticator, reqDigest uint64, reply []byte, now time.Time) {
	k := c.keyOf(auth)
	s := &c.shards[shardIndex(auth)]
	s.mu.Lock()
	defer s.mu.Unlock()
	if got, ok := s.seen[k]; ok && live(now.UnixNano(), got.deadline) {
		got.digest = reqDigest
		got.reply = reply
		s.seen[k] = got
		c.metrics.Remembered.Inc()
	}
}

// Len reports the number of remembered authenticators (for tests and
// monitoring). Expired entries not yet retired by incremental sweeps are
// counted.
func (c *Cache) Len() int {
	total := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		total += len(s.seen)
		s.mu.Unlock()
	}
	return total
}
