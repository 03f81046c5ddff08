// Package replay implements the server-side replay detection of §4.3:
// "The server is also allowed to keep track of all past requests with
// time stamps that are still valid. In order to further foil replay
// attacks, a request received with the same ticket and time stamp as one
// already received can be discarded."
//
// The cache is sharded: each authenticator hashes to one of shardCount
// independently locked shards, so concurrent requests only contend when
// they land on the same shard. Expiry is incremental — each check retires
// at most a few expired entries from the front of its own shard — so no
// request ever waits behind a full sweep, and a busy shard never blocks
// an unrelated one.
//
// A shard is two pointer-free structures. Its ring holds one fixed
// 56-byte slot per remembered authenticator in insertion order, which
// is expiry order: the client's name, instance and realm folded into a
// keyed 64-bit fingerprint, the authenticator's time, microseconds and
// checksum, the deadline, and a fixed-size Memo of the server's answer.
// Its index is open-addressed tables of 4-byte ring positions. An entry
// costs about 68 bytes, so the cache never retains the decoded name
// strings or any caller memory, and the collector never scans it.
package replay

import (
	"crypto/sha256"
	"encoding/binary"
	"hash/maphash"
	"math/bits"
	"math/rand/v2"
	"slices"
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

// shrinkMin is the smallest peak population a shard rebuilds its index
// down from; below it the retained memory is not worth a rehash.
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

// memoSize is the length of a Memo: what the KDC needs to rebuild a
// ticket-granting reply (see kdc's tgsMemo).
const memoSize = 18

// Memo is what a server attaches to an authenticator it answered: a
// fixed-size record of how it built the reply, from which it can build
// the byte-identical reply again for a retransmission. Its layout
// belongs to the caller; the cache only stores it and hands it back.
type Memo [memoSize]byte

// Verdict is the outcome of presenting an authenticator.
type Verdict uint8

const (
	// Fresh: first presentation within the window, now recorded.
	Fresh Verdict = iota
	// Replay: presented before, and no memo answers this request —
	// a true replay, an authenticator stapled to a different request,
	// or a twin whose original is still in flight.
	Replay
	// Retransmit: presented before with a byte-identical request
	// (same Digest) whose answer was remembered; the memo comes back.
	Retransmit
)

// slot is what the cache remembers per authenticator: its key, the
// expiry deadline, plus (optionally) a memo of the server's answer — so
// a retransmitted request can be answered idempotently instead of being
// rejected as a replay. The memo is only handed back for a request
// whose Digest matches the one it answered. The key's fields are laid
// out flat and widest first, so the 55 bytes of fields fill 56.
//
// The deadline is Unix nanoseconds of the caller's now: the wall clock
// the ±5 min skew check reads. A monotonic deadline would let a
// skew-valid authenticator outlive its entry after the wall clock steps
// back.
type slot struct {
	who      uint64
	deadline int64
	digest   uint64 // Digest of the full request the memo answers
	time     core.KerberosTime
	microSec uint32
	checksum uint32
	memo     Memo
	memoized bool // set once Remember attaches memo
}

func (s *slot) key() key {
	return key{who: s.who, time: s.time, microSec: s.microSec, checksum: s.checksum}
}

// live reports whether an entry with the given deadline still guards
// its authenticator at now. The deadline itself is inclusive: the skew
// check accepts both ends of its ±ClockSkew range, so an authenticator
// first accepted ClockSkew early is still skew-valid exactly one window
// later and must still be held then. SeenWithMemo, Remember and sweep
// all decide through this one comparison.
func live(now, deadline int64) bool { return now <= deadline }

// Ring positions are chunk number << posBits | offset in the chunk,
// modulo 2^32. Offsets stay below chunkMax < 1<<posBits, so a position
// plus one is never 0, which marks an empty index slot.
const (
	posBits  = 11
	offMask  = 1<<posBits - 1
	numMask  = 1<<(32-posBits) - 1
	chunkMin = 4   // slots in an empty ring's first chunk (224 B)
	chunkMax = 512 // slots in a full-size chunk (28 KiB)
)

// ring is a shard's slots in insertion order. Expiry deadlines come
// from the caller's now at insert, so the ring is in expiry order while
// that clock runs forward; if it steps back, sweeps stop at the later
// front slot and the slots behind it live longer, never shorter.
//
// The ring is a queue of chunks: slots are appended to the last chunk
// and retired from the first, and a drained chunk is dropped whole. No
// slot ever moves, so a position names its slot for the slot's
// lifetime. A new chunk is sized to the ring's length, from chunkMin up
// to chunkMax, so a ring is never much larger than what it holds.
type ring struct {
	chunks [][]slot // chunks[i] is chunk number first+i; each fills to its cap
	first  uint32   // chunk number of chunks[0]
	head   int      // offset of the oldest slot in chunks[0]
	n      int      // slots held
}

// at returns the slot at position pos.
func (r *ring) at(pos uint32) *slot {
	return &r.chunks[(pos>>posBits-r.first)&numMask][pos&offMask]
}

// push appends a zero slot and returns its position and address.
func (r *ring) push() (uint32, *slot) {
	last := len(r.chunks) - 1
	if last < 0 || len(r.chunks[last]) == cap(r.chunks[last]) {
		size := chunkMin
		if r.n > chunkMin {
			size = min(chunkMax, 1<<(bits.Len(uint(r.n))-1))
		}
		// slices.Grow rounds the chunk up to its allocation size class.
		r.chunks = append(r.chunks, slices.Grow([]slot(nil), size))
		last++
	}
	c := &r.chunks[last]
	off := len(*c)
	*c = (*c)[:off+1]
	r.n++
	return (r.first+uint32(last))&numMask<<posBits | uint32(off), &(*c)[off]
}

// front returns the oldest slot and its position; the ring must hold one.
func (r *ring) front() (uint32, *slot) {
	return r.first<<posBits | uint32(r.head), &r.chunks[0][r.head]
}

// pop retires the oldest slot, dropping its chunk once it is drained.
func (r *ring) pop() {
	r.head++
	r.n--
	if r.head == cap(r.chunks[0]) {
		r.chunks[0] = nil
		r.chunks = r.chunks[1:]
		r.first = (r.first + 1) & numMask
		r.head = 0
	}
}

// Index tables hold between tableMin and tableMax slots.
const (
	tableMin = 8
	tableMax = 1024
)

// table is one open-addressed table of a shard's index: ring positions
// plus one, 0 marking an empty slot, probed linearly from the low bits
// of the key's hash and kept at most half full.
type table struct {
	pos   []uint32
	used  int
	depth uint8 // leading hash bits every key it holds shares
}

// index finds a key's slot in the ring. It is extendible hashing over
// tables, the way Go's own map splits its tables: the directory picks a
// table by the hash's leading depth bits. A table that passes half full
// doubles until it reaches tableMax slots and then splits in two by the
// next hash bit, so one insert moves at most tableMax positions and no
// check waits behind a rehash of the whole shard.
type index struct {
	dir   []*table // 1 << depth entries; a table of depth d fills 1 << (depth-d)
	depth uint8
	count int    // keys held
	moved uint64 // positions rehashed by growth (read by tests)
}

// hasher spreads keys over a shard's index. Its words are random per
// cache, as the runtime seeds each map's hash, so clients cannot choose
// authenticators that share a probe run.
type hasher struct{ s0, s1, s2 uint64 }

func newHasher() hasher {
	return hasher{s0: rand.Uint64(), s1: rand.Uint64(), s2: rand.Uint64() | 1}
}

// sum hashes k by two folded 64×64→128-bit multiplies.
func (hs *hasher) sum(k key) uint64 {
	a := mix(k.who^hs.s0, (uint64(k.time)<<32|uint64(k.microSec))^hs.s1)
	return mix(a^uint64(k.checksum), hs.s2)
}

func mix(a, b uint64) uint64 {
	hi, lo := bits.Mul64(a, b)
	return hi ^ lo
}

// tableOf returns the table that holds keys hashing to h.
func (x *index) tableOf(h uint64) *table {
	return x.dir[h>>(64-x.depth)]
}

// find probes for k from its home slot. It returns k's table, the
// index slot holding k — or the empty slot where k belongs — and k's
// ring slot, nil if the index does not hold k.
func (x *index) find(r *ring, k key, h uint64) (*table, uint32, *slot) {
	t := x.tableOf(h)
	mask := uint32(len(t.pos) - 1)
	for i := uint32(h) & mask; ; i = (i + 1) & mask {
		p := t.pos[i]
		if p == 0 {
			return t, i, nil
		}
		if s := r.at(p - 1); s.key() == k {
			return t, i, s
		}
	}
}

// insert stores p, a ring position plus one, in the empty slot i of t
// where a key hashing to h belongs, and grows t past half full.
func (x *index) insert(r *ring, hs *hasher, t *table, i, p uint32, h uint64) {
	t.pos[i] = p
	t.used++
	x.count++
	if 2*t.used > len(t.pos) {
		x.grow(r, hs, t, h)
	}
}

// free returns the empty slot that ends the probe run from h's home.
func (t *table) free(h uint64) uint32 {
	mask := uint32(len(t.pos) - 1)
	i := uint32(h) & mask
	for t.pos[i] != 0 {
		i = (i + 1) & mask
	}
	return i
}

// place puts p, a position plus one that t does not hold, into t.
func (t *table) place(h uint64, p uint32) {
	t.pos[t.free(h)] = p
	t.used++
}

// grow doubles t, or splits it when it has reached tableMax; h is the
// hash of a key t holds.
func (x *index) grow(r *ring, hs *hasher, t *table, h uint64) {
	x.moved += uint64(t.used)
	if len(t.pos) < tableMax {
		old := t.pos
		t.pos, t.used = make([]uint32, 2*len(old)), 0
		for _, p := range old {
			if p != 0 {
				t.place(hs.sum(r.at(p-1).key()), p)
			}
		}
		return
	}
	if t.depth == x.depth {
		dir := make([]*table, 2*len(x.dir))
		for i, d := range x.dir {
			dir[2*i], dir[2*i+1] = d, d
		}
		x.dir = dir
		x.depth++
	}
	lo := &table{pos: make([]uint32, tableMax), depth: t.depth + 1}
	hi := &table{pos: make([]uint32, tableMax), depth: t.depth + 1}
	for _, p := range t.pos {
		if p != 0 {
			ph := hs.sum(r.at(p - 1).key())
			if ph<<t.depth>>63 == 0 {
				lo.place(ph, p)
			} else {
				hi.place(ph, p)
			}
		}
	}
	span := 1 << (x.depth - t.depth)
	start := int(h>>(64-x.depth)) &^ (span - 1)
	for j := range span / 2 {
		x.dir[start+j], x.dir[start+span/2+j] = lo, hi
	}
}

// remove deletes ring position pos, whose key hashes to h, if the index
// still points there, and closes the gap by shifting the rest of the
// probe run back; the run never holds an empty slot, so no tombstones.
func (x *index) remove(r *ring, hs *hasher, pos uint32, h uint64) bool {
	t := x.tableOf(h)
	mask := uint32(len(t.pos) - 1)
	i := uint32(h) & mask
	for t.pos[i] != pos+1 {
		if t.pos[i] == 0 {
			return false
		}
		i = (i + 1) & mask
	}
	for j := (i + 1) & mask; t.pos[j] != 0; j = (j + 1) & mask {
		// The position at j may fill i unless its home lies in (i, j].
		home := uint32(hs.sum(r.at(t.pos[j]-1).key())) & mask
		if (j-home)&mask >= (j-i)&mask {
			t.pos[i] = t.pos[j]
			i = j
		}
	}
	t.pos[i] = 0
	t.used--
	x.count--
	return true
}

// reset empties the index down to one table sized for n keys.
func (x *index) reset(n int) {
	size := tableMin
	for size < tableMax && size < 2*n {
		size *= 2
	}
	x.dir = []*table{{pos: make([]uint32, size)}}
	x.depth, x.count = 0, 0
}

// rebuild reallocates the index at its current population. Tables only
// double or split, so without it a shard would hold its flood-peak
// index forever; the ring gives its chunks back as they drain.
// Rebuilding only after the population fell to a quarter of its peak
// keeps the rehash amortized O(1) per retired entry.
func (x *index) rebuild(r *ring, hs *hasher) {
	old, depth := x.dir, x.depth
	x.reset(x.count)
	for i := 0; i < len(old); i += 1 << (depth - old[i].depth) {
		for _, p := range old[i].pos {
			if p != 0 {
				h := hs.sum(r.at(p - 1).key())
				t := x.tableOf(h)
				x.insert(r, hs, t, t.free(h), p, h)
			}
		}
	}
}

// shard is one lock domain: the ring and the index over it.
type shard struct {
	mu   sync.Mutex
	ring ring
	idx  index
	peak int // largest idx.count since the index was last rebuilt
}

// Metrics counts cache activity. All fields are lock-free; a scrape
// never takes a shard lock.
type Metrics struct {
	Checks     obs.Counter // presentations examined (Seen/SeenWithMemo)
	Hits       obs.Counter // duplicates detected within the window
	Memoized   obs.Counter // duplicates answered with a remembered memo
	Remembered obs.Counter // memos attached for idempotent retransmits
	Swept      obs.Counter // expired entries retired by incremental sweeps
}

// Cache remembers recently seen authenticators. It is safe for
// concurrent use. The zero value is not usable; call New.
type Cache struct {
	window  time.Duration
	seed    maphash.Seed // keys Cache.keyOf's principal fingerprint
	hash    hasher       // keys the shards' indexes
	metrics Metrics
	shards  [shardCount]shard
}

// New creates a cache holding authenticators for the full replay window
// (twice the clock skew: an authenticator can be at most ClockSkew old or
// ClockSkew in the future when first accepted).
func New() *Cache {
	return &Cache{window: 2 * core.ClockSkew, seed: maphash.MakeSeed(), hash: newHasher()}
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

// sweep retires up to sweepBatch expired slots from the front of the
// shard's ring. Called with the shard locked. Because re-presentation
// after expiry gives a key a new slot and points the index there, a
// retired slot only deletes its key when the index still points at it.
func (s *shard) sweep(hs *hasher, now int64) (swept int) {
	s.peak = max(s.peak, s.idx.count)
	for n := 0; n < sweepBatch && s.ring.n > 0; n++ {
		pos, sl := s.ring.front()
		if live(now, sl.deadline) {
			break
		}
		if s.idx.remove(&s.ring, hs, pos, hs.sum(sl.key())) {
			swept++
		}
		s.ring.pop()
	}
	if s.peak >= shrinkMin && s.idx.count <= s.peak/4 {
		s.idx.rebuild(&s.ring, hs)
		s.peak = s.idx.count
	}
	return swept
}

// seen is SeenWithMemo on one shard, for the key k hashing to h. Called
// with the shard locked. A key presented again after its slot expired
// gets a new slot at the tail, and the index is pointed at it.
func (s *shard) seen(hs *hasher, k key, h, reqDigest uint64, now, deadline int64) (Memo, Verdict) {
	if s.idx.dir == nil {
		s.idx.reset(0)
	}
	t, i, got := s.idx.find(&s.ring, k, h)
	if got != nil && live(now, got.deadline) {
		if got.memoized && got.digest == reqDigest {
			return got.memo, Retransmit
		}
		return Memo{}, Replay
	}
	pos, sl := s.ring.push()
	*sl = slot{who: k.who, deadline: deadline, time: k.time, microSec: k.microSec, checksum: k.checksum}
	if got != nil {
		t.pos[i] = pos + 1
	} else {
		s.idx.insert(&s.ring, hs, t, i, pos+1, h)
	}
	return Memo{}, Fresh
}

// Seen records the authenticator and reports whether it had been
// presented before within the replay window. The first presentation
// returns false; any identical presentation afterwards returns true.
//
//kerb:hotpath
func (c *Cache) Seen(auth *core.Authenticator, now time.Time) bool {
	_, v := c.SeenWithMemo(auth, 0, now)
	return v != Fresh
}

// Digest folds a full request message into the fingerprint that gates
// idempotent answers: the first 8 bytes of its SHA-256. A matching
// digest authorizes a server to reissue the remembered answer's session
// key into a ticket built from the retransmitted body, so the digest
// must resist second preimages: a forged body colliding with a captured
// one would otherwise get the victim's session key sealed into a ticket
// of the forger's choosing.
func Digest(msg []byte) uint64 {
	sum := sha256.Sum256(msg)
	return binary.BigEndian.Uint64(sum[:8])
}

// SeenWithMemo is Seen for idempotent request/reply servers: like Seen,
// it records a first presentation (Fresh) and flags any later one, but
// a duplicate whose full request digest matches the one a memo was
// remembered for is a Retransmit and gets that memo back. A KDC uses
// this to answer a retransmitted ticket-granting request —
// byte-identical because the client resent the same datagram after
// losing the reply — with the original answer instead of a replay
// error, while still refusing both fresh work and any answer for a
// replayed authenticator stapled to a different request body (Replay).
// Lookup and insert share one probe of the shard's index.
//
//kerb:hotpath
func (c *Cache) SeenWithMemo(auth *core.Authenticator, reqDigest uint64, now time.Time) (Memo, Verdict) {
	c.metrics.Checks.Inc()
	k := c.keyOf(auth)
	h := c.hash.sum(k)
	s := &c.shards[shardIndex(auth)]
	ns := now.UnixNano()
	s.mu.Lock()
	defer s.mu.Unlock()
	if n := s.sweep(&c.hash, ns); n > 0 {
		c.metrics.Swept.Add(uint64(n))
	}
	memo, v := s.seen(&c.hash, k, h, reqDigest, ns, ns+int64(c.window))
	switch v {
	case Retransmit:
		c.metrics.Memoized.Inc()
		fallthrough
	case Replay:
		c.metrics.Hits.Inc()
	}
	return memo, v
}

// Remember attaches a memo of the server's answer (and the digest of
// the request it answers) to an authenticator the cache is already
// holding, making future byte-identical duplicates answerable
// idempotently. The memo is copied; nothing of the caller's is
// retained. Unknown or expired authenticators are ignored.
//
//kerb:hotpath
func (c *Cache) Remember(auth *core.Authenticator, reqDigest uint64, memo Memo, now time.Time) {
	k := c.keyOf(auth)
	h := c.hash.sum(k)
	s := &c.shards[shardIndex(auth)]
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.idx.dir == nil {
		return
	}
	if _, _, got := s.idx.find(&s.ring, k, h); got != nil && live(now.UnixNano(), got.deadline) {
		got.digest = reqDigest
		got.memo = memo
		got.memoized = true
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
		total += s.idx.count
		s.mu.Unlock()
	}
	return total
}
