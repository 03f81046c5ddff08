package kdb

import (
	"sort"
	"sync"
	"sync/atomic"
)

// EpochStore is the one in-memory Store: a Database serves from it
// directly, a SegmentStore persists one, and a Follower keeps one per
// shard in step with another process's segment log. A map behind an
// RWMutex would make every read take a shared lock; at high core counts
// the lock word itself becomes the contention point — every GetRO
// bounces the cache line even though readers conflict with nothing.
// EpochStore removes the read-side lock entirely with epoch-style
// publication:
//
//   - The whole index lives behind one atomic.Pointer. A reader loads
//     the pointer once and works on an immutable snapshot; it takes no
//     lock, writes no shared memory, and cannot be blocked by writers.
//   - Writers (serialized by a mutex, matching the Database's per-shard
//     write discipline) never mutate a published index. They copy the
//     touched bucket plus the small spine above it, splice in the
//     change, and publish a new index with one atomic store.
//   - Readers that loaded the old pointer keep a fully consistent old
//     snapshot; the GC retires it when the last reader drops it — the
//     grace period comes for free.
//
// The index itself is two layers. The bulk of the data sits in the
// base: a mapped KDB4 snapshot read in place, or an ID-sorted entry
// slab, with an open-addressed hash table over it. On top
// rides a small copy-on-write delta trie (64×64 fan-out of slots)
// holding everything written since the slab was built; a fixed-depth
// trie keeps the per-write copy cost at ~3 small nodes regardless of
// delta size. When the delta outgrows a fraction of the slab it is
// folded down into a fresh slab off the write lock's critical reads —
// amortized O(1) per write.
//
// A batch (ApplyBatch, the kprop delta install) mutates one private
// copy and publishes once, so concurrent readers observe none or all
// of the batch.
type EpochStore struct {
	mu  sync.Mutex // writers only; readers never touch it
	idx atomic.Pointer[epochIndex]
}

const deltaFan = 64 // trie fan-out per level (two levels: 4096 buckets)

// epochIndex is one immutable published version of the store. The base
// takes one of two forms: a heap slab, or a mapped KDB4 snapshot
// (snap != nil) whose records serve lookups in place, so a cold start
// touches no per-entry memory.
type epochIndex struct {
	slab  []Entry   // ID-sorted base entries; strings may alias an mmap
	snap  *Snapshot // mapped base read in place; nil when slab-backed
	table []int32   // open-addressed: hash slot -> base index, -1 empty
	root  [deltaFan]*deltaMid
	live  int // live entries (base + delta upserts - tombstones)
	dirty int // delta slots (upserts + tombstones); fold trigger
}

type deltaMid struct {
	buckets [deltaFan]*deltaBucket
}

type deltaBucket struct {
	slots []deltaSlot
}

// deltaSlot is one overlay record: an upsert (e != nil) or a tombstone
// shadowing a slab entry (e == nil).
type deltaSlot struct {
	h  uint64
	id string
	e  *Entry
}

// baseLen returns the number of base records (either form).
func (ix *epochIndex) baseLen() int {
	if ix.snap != nil {
		return ix.snap.Count()
	}
	return len(ix.slab)
}

// baseCompareID three-way compares base record j's ID to id in
// joined-string order (the merge order fold and Range walk in).
func (ix *epochIndex) baseCompareID(j int, id string) int {
	if ix.snap != nil {
		name, inst := ix.snap.nameInstAt(j)
		return comparePairID(name, inst, id)
	}
	return compareEntryID(&ix.slab[j], id)
}

// baseAt copies base record j into dst: a mapped record is decoded in
// place (its strings and sealed key alias the mapping), a slab entry is
// copied as a value.
func (ix *epochIndex) baseAt(j int, dst *Entry) {
	if ix.snap != nil {
		ix.snap.decodeRecord(j, dst)
		return
	}
	*dst = ix.slab[j]
}

// NewEpochStore returns an empty store.
func NewEpochStore() *EpochStore {
	s := &EpochStore{}
	s.idx.Store(&epochIndex{})
	return s
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// hashID is the FNV-1a hash of a rendered "name.instance" ID, the
// probe-table hash.
func hashID(id string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(id); i++ {
		h ^= uint64(id[i])
		h *= fnvPrime64
	}
	return h
}

// hashPair is hashID over the ID the (name, instance) pair would
// render to, without materializing it. ShardIndex routes by it too.
func hashPair(name, instance string) uint64 {
	h := uint64(fnvOffset64)
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= fnvPrime64
	}
	h ^= uint64('.')
	h *= fnvPrime64
	for i := 0; i < len(instance); i++ {
		h ^= uint64(instance[i])
		h *= fnvPrime64
	}
	return h
}

// entryIsID reports whether e's ID equals id without rendering it.
func entryIsID(e *Entry, id string) bool {
	n := len(e.Name)
	return len(id) == n+1+len(e.Instance) &&
		id[n] == '.' && id[:n] == e.Name && id[n+1:] == e.Instance
}

// idIsPair reports whether id equals ID(name, instance) without
// rendering the pair.
func idIsPair(id, name, instance string) bool {
	n := len(name)
	return len(id) == n+1+len(instance) &&
		id[:n] == name && id[n] == '.' && id[n+1:] == instance
}

// compareEntryID three-way compares e's ID to id in joined-string
// order (Name + "." + Instance, the order every Range and dump uses)
// without materializing the join.
func compareEntryID(e *Entry, id string) int {
	return comparePairID(e.Name, e.Instance, id)
}

// comparePairID is compareEntryID over a bare (name, instance) pair —
// the form a mapped snapshot record decodes to.
func comparePairID(name, instance, id string) int {
	n := len(name)
	if n < len(id) {
		if c := strcmp(name, id[:n]); c != 0 {
			return c
		}
		rest := id[n:] // non-empty: the joined ID's "." + instance vs rest
		if rest[0] != '.' {
			if '.' < rest[0] {
				return -1
			}
			return 1
		}
		return strcmp(instance, rest[1:])
	}
	// The name alone is at least as long as id. If its prefix differs,
	// that decides; otherwise the joined ID strictly extends id (with
	// the rest of the name and/or "." + instance), so it sorts after.
	if c := strcmp(name[:len(id)], id); c != 0 {
		return c
	}
	return 1
}

func strcmp(a, b string) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// deltaSlotPair returns the delta slot for (name, instance), or nil when
// the delta does not hold it.
func (ix *epochIndex) deltaSlotPair(h uint64, name, instance string) *deltaSlot {
	if mid := ix.root[h&(deltaFan-1)]; mid != nil {
		if b := mid.buckets[(h>>6)&(deltaFan-1)]; b != nil {
			for i := range b.slots {
				if s := &b.slots[i]; s.h == h && idIsPair(s.id, name, instance) {
					return s
				}
			}
		}
	}
	return nil
}

// lookupPair resolves (name, instance) into dst: delta first
// (authoritative for anything it holds, tombstones included), then the
// base through the probe table. The pair is never joined into an ID.
func (ix *epochIndex) lookupPair(h uint64, name, instance string, dst *Entry) bool {
	if s := ix.deltaSlotPair(h, name, instance); s != nil {
		if s.e == nil {
			return false // tombstone
		}
		*dst = *s.e
		return true
	}
	j := ix.basePair(h, name, instance)
	if j < 0 {
		return false
	}
	ix.baseAt(j, dst)
	return true
}

// basePair returns the base index of (name, instance), or -1.
func (ix *epochIndex) basePair(h uint64, name, instance string) int {
	if len(ix.table) == 0 {
		return -1
	}
	mask := uint64(len(ix.table) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		j := int(ix.table[i])
		if j < 0 {
			return -1
		}
		if ix.snap != nil {
			if n, inst := ix.snap.nameInstAt(j); n == name && inst == instance {
				return j
			}
		} else if e := &ix.slab[j]; e.Name == name && e.Instance == instance {
			return j
		}
	}
}

// baseHasID reports whether the base holds the rendered ID id.
func (ix *epochIndex) baseHasID(h uint64, id string) bool {
	if len(ix.table) == 0 {
		return false
	}
	mask := uint64(len(ix.table) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		j := int(ix.table[i])
		if j < 0 {
			return false
		}
		if ix.snap != nil {
			if name, inst := ix.snap.nameInstAt(j); idIsPair(id, name, inst) {
				return true
			}
		} else if entryIsID(&ix.slab[j], id) {
			return true
		}
	}
}

// Lookup implements Store: one atomic load, zero locks, zero
// allocations — the KDC's per-request read.
//
//kerb:hotpath
func (s *EpochStore) Lookup(name, instance string, dst *Entry) bool {
	return s.idx.Load().lookupPair(hashPair(name, instance), name, instance, dst)
}

// Len implements Store.
func (s *EpochStore) Len() int { return s.idx.Load().live }

// LoadedMeta implements Store: memory carries no lineage across a
// restart.
func (s *EpochStore) LoadedMeta() DumpMeta { return DumpMeta{} }

// ApplyLogged implements Store: the batch lands in one publication and
// the records are not kept (the Database journals them itself).
func (s *EpochStore) ApplyLogged(_ []LogRec, upserts []*Entry, deletes []string) error {
	s.ApplyBatch(upserts, deletes)
	return nil
}

// Put inserts or replaces one entry (segment replay).
func (s *EpochStore) Put(e *Entry) {
	c := e.clone()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.applyLocked([]*Entry{c}, nil)
}

// Delete removes one entry; deleting a missing entry is a no-op.
func (s *EpochStore) Delete(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.applyLocked(nil, []string{id})
}

// ApplyBatch applies upserts and deletes in one publication, so readers
// see none or all of them.
func (s *EpochStore) ApplyBatch(upserts []*Entry, deletes []string) {
	clones := make([]*Entry, len(upserts))
	for i, e := range upserts {
		clones[i] = e.clone()
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.applyLocked(clones, deletes)
}

// ReplaceAll implements Store: a fresh slab, published once. The
// lineage is the Database's to keep, and memory cannot fail.
func (s *EpochStore) ReplaceAll(entries []*Entry, _ DumpMeta) error {
	slab := make([]Entry, len(entries))
	for i, e := range entries {
		slab[i] = *e.clone()
	}
	ensureSortedSlab(slab)
	ix := indexSlab(slab)
	s.mu.Lock()
	s.idx.Store(ix)
	s.mu.Unlock()
	return nil
}

// adopt publishes another store's current index as this one's, so a
// privately built image replaces the contents in one step.
func (s *EpochStore) adopt(o *EpochStore) {
	ix := o.idx.Load()
	s.mu.Lock()
	s.idx.Store(ix)
	s.mu.Unlock()
}

// InstallSlab publishes a caller-built slab directly, without cloning
// — the cold-start path installing entries materialized from a KDB4
// snapshot (which already owns them and keeps their backing memory
// alive). The slab must be ID-sorted with unique IDs; a snapshot is by
// construction, and anything else is re-sorted defensively.
func (s *EpochStore) InstallSlab(slab []Entry) {
	ensureSortedSlab(slab)
	ix := indexSlab(slab)
	s.mu.Lock()
	s.idx.Store(ix)
	s.mu.Unlock()
}

// installSnapshot publishes a snapshot-backed base: the mapped records
// themselves serve lookups through the snapshot's prebuilt probe table
// (which may alias the mapping), each decoded into the caller's Entry
// when read. This is the KDB4 cold-start path — install cost is O(1) in
// the principal count, and reads keep nothing. The snapshot must stay
// open for the life of the store: entries read from it alias its
// arena, and so do delta folds, which copy arena-aliased strings into
// heap slabs, so even after the snap base is folded away its mapping is
// referenced.
func (s *EpochStore) installSnapshot(sn *Snapshot, table []int32) {
	ix := &epochIndex{snap: sn, table: table, live: sn.Count()}
	s.mu.Lock()
	s.idx.Store(ix)
	s.mu.Unlock()
}

// ensureSortedSlab sorts the slab by ID when it is not already (bulk
// callers pass dump order, which is sorted; the check is one pass).
func ensureSortedSlab(slab []Entry) {
	sorted := true
	for i := 1; i < len(slab); i++ {
		if compareEntryID(&slab[i-1], slab[i].ID()) >= 0 {
			sorted = false
			break
		}
	}
	if !sorted {
		sort.Slice(slab, func(i, j int) bool {
			return compareEntryID(&slab[i], slab[j].ID()) < 0
		})
	}
}

// sortedEntriesByID returns entries in joined-ID order, copying only
// when the input is not already sorted (bulk callers pass dump order).
func sortedEntriesByID(entries []*Entry) []*Entry {
	for i := 1; i < len(entries); i++ {
		if compareEntryID(entries[i-1], entries[i].ID()) >= 0 {
			c := append([]*Entry(nil), entries...)
			sort.Slice(c, func(i, j int) bool {
				return compareEntryID(c[i], c[j].ID()) < 0
			})
			return c
		}
	}
	return entries
}

// indexSlab builds the published index for a sorted slab: the
// open-addressed table at load factor ≤ 0.5.
func indexSlab(slab []Entry) *epochIndex {
	ix := &epochIndex{slab: slab, live: len(slab)}
	if len(slab) == 0 {
		return ix
	}
	size := 1
	for size < len(slab)*2 {
		size <<= 1
	}
	table := make([]int32, size)
	for i := range table {
		table[i] = -1
	}
	mask := uint64(size - 1)
	for j := range slab {
		h := hashPair(slab[j].Name, slab[j].Instance)
		for i := h & mask; ; i = (i + 1) & mask {
			if table[i] < 0 {
				table[i] = int32(j)
				break
			}
		}
	}
	ix.table = table
	return ix
}

// epochBuilder accumulates one batch of mutations into a private copy
// of the index, cloning each trie node at most once per batch.
type epochBuilder struct {
	ix           *epochIndex
	clonedMid    [deltaFan]bool
	clonedBucket [deltaFan][deltaFan]bool
}

// applyLocked installs a batch: clone-and-mutate, then one publish.
// Callers hold s.mu.
func (s *EpochStore) applyLocked(upserts []*Entry, deletes []string) {
	cur := s.idx.Load()
	next := &epochIndex{
		slab:  cur.slab,
		snap:  cur.snap,
		table: cur.table,
		root:  cur.root, // array copy: 64 pointers
		live:  cur.live,
		dirty: cur.dirty,
	}
	b := &epochBuilder{ix: next}
	for _, e := range upserts {
		b.upsert(e)
	}
	for _, id := range deletes {
		b.delete(id)
	}
	if next.dirty > foldThreshold(len(next.slab)) {
		next = next.fold()
	}
	s.idx.Store(next)
}

// bucket returns the delta bucket for h, cloned for this batch.
func (b *epochBuilder) bucket(h uint64) *deltaBucket {
	ri := h & (deltaFan - 1)
	mi := (h >> 6) & (deltaFan - 1)
	mid := b.ix.root[ri]
	switch {
	case mid == nil:
		mid = &deltaMid{}
		b.ix.root[ri] = mid
		b.clonedMid[ri] = true
	case !b.clonedMid[ri]:
		c := *mid
		mid = &c
		b.ix.root[ri] = mid
		b.clonedMid[ri] = true
	}
	bk := mid.buckets[mi]
	switch {
	case bk == nil:
		bk = &deltaBucket{}
		mid.buckets[mi] = bk
		b.clonedBucket[ri][mi] = true
	case !b.clonedBucket[ri][mi]:
		bk = &deltaBucket{slots: append([]deltaSlot(nil), bk.slots...)}
		mid.buckets[mi] = bk
		b.clonedBucket[ri][mi] = true
	}
	return bk
}

func (b *epochBuilder) upsert(e *Entry) {
	id := e.ID()
	h := hashID(id)
	bk := b.bucket(h)
	for i := range bk.slots {
		s := &bk.slots[i]
		if s.h == h && s.id == id {
			if s.e == nil {
				b.ix.live++ // resurrecting a tombstoned ID
			}
			s.e = e
			return
		}
	}
	bk.slots = append(bk.slots, deltaSlot{h: h, id: id, e: e})
	b.ix.dirty++
	if !b.ix.baseHasID(h, id) {
		b.ix.live++
	}
}

func (b *epochBuilder) delete(id string) {
	h := hashID(id)
	bk := b.bucket(h)
	for i := range bk.slots {
		s := &bk.slots[i]
		if s.h == h && s.id == id {
			if s.e == nil {
				return // already deleted
			}
			b.ix.live--
			if b.ix.baseHasID(h, id) {
				s.e = nil // keep the tombstone shadowing the slab
			} else {
				bk.slots = append(bk.slots[:i], bk.slots[i+1:]...)
				b.ix.dirty--
			}
			return
		}
	}
	if b.ix.baseHasID(h, id) {
		bk.slots = append(bk.slots, deltaSlot{h: h, id: id})
		b.ix.dirty++
		b.ix.live--
	}
}

// foldThreshold is the delta size that triggers a fold. Growing with
// the slab keeps the amortized fold cost per write constant (each fold
// copies ≤ ~5× the writes that paid for it) while the floor stops tiny
// databases from folding on every write.
func foldThreshold(slabLen int) int {
	t := slabLen / 4
	if t < 1024 {
		t = 1024
	}
	return t
}

// sortedOverlay flattens the delta trie into ID order.
func (ix *epochIndex) sortedOverlay() []deltaSlot {
	if ix.dirty == 0 {
		return nil
	}
	overlay := make([]deltaSlot, 0, ix.dirty)
	for _, mid := range ix.root {
		if mid == nil {
			continue
		}
		for _, bk := range mid.buckets {
			if bk != nil {
				overlay = append(overlay, bk.slots...)
			}
		}
	}
	sort.Slice(overlay, func(i, j int) bool { return overlay[i].id < overlay[j].id })
	return overlay
}

// walk visits the index's live entries in globally sorted ID order,
// merging the sorted base with the sorted overlay, until fn returns
// false: fn gets a base record's index with a nil e, or an overlay
// entry. Tombstones and the base records they shadow are skipped.
func (ix *epochIndex) walk(fn func(j int, e *Entry) bool) {
	overlay := ix.sortedOverlay()
	n := ix.baseLen()
	si, oi := 0, 0
	for si < n || oi < len(overlay) {
		c := -1 // base record next
		switch {
		case si >= n:
			c = 1
		case oi < len(overlay):
			c = ix.baseCompareID(si, overlay[oi].id)
		}
		if c < 0 {
			if !fn(si, nil) {
				return
			}
			si++
			continue
		}
		if c == 0 {
			si++ // shadowed by the overlay
		}
		e := overlay[oi].e
		oi++
		if e != nil && !fn(-1, e) {
			return
		}
	}
}

// fold merges the delta down into a fresh slab + table. A
// snapshot-backed base folds the same way — its records decode into
// the new slab (aliasing the mapping, which the owning SegmentStore
// keeps open until Close).
func (ix *epochIndex) fold() *epochIndex {
	slab := make([]Entry, 0, ix.live)
	ix.walk(func(j int, e *Entry) bool {
		if e != nil {
			slab = append(slab, *e)
		} else {
			slab = append(slab, Entry{})
			ix.baseAt(j, &slab[len(slab)-1])
		}
		return true
	})
	return indexSlab(slab)
}

// Range implements Store: a clone per entry in globally sorted ID
// order.
func (s *EpochStore) Range(fn func(*Entry) bool) {
	ix := s.idx.Load()
	ix.walk(func(j int, e *Entry) bool {
		if e == nil {
			var base Entry
			ix.baseAt(j, &base)
			e = &base
		}
		return fn(e.clone())
	})
}

// SlabStats reports the published index shape (observability: resident
// cost and delta pressure).
func (s *EpochStore) SlabStats() (slabLen, deltaLen, tableLen int) {
	ix := s.idx.Load()
	return ix.baseLen(), ix.dirty, len(ix.table)
}
