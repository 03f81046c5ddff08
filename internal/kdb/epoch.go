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
// The index itself is two layers. The bulk of the data sits in an
// ID-sorted entry slab with an open-addressed hash table over it — the
// form a KDB4 snapshot materializes into with O(1) allocations. On top
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
// takes one of two forms: a heap slab (slab != nil path), or a
// snapshot-backed snapBase (snap != nil) serving lookups straight from
// the mapped KDB4 records so cold start touches no per-entry memory.
type epochIndex struct {
	slab  []Entry   // ID-sorted base entries; strings may alias an mmap
	snap  *snapBase // lazily-materialized mapped base; nil when slab-backed
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

// snapBase serves an epoch's base straight from a mapped KDB4
// snapshot. Probes compare names against zero-copy arena views, so a
// cold start installs the mapping and the precomputed probe table and
// is done — no per-entry decode, no slab fill, no rehash. The first
// time a record is actually returned it is materialized once into ents
// (first-fill-wins CAS, the Entry.keycache discipline), so each
// principal pays its decode on first use and a stable *Entry identity
// afterwards — which is also what lets the per-entry key cache stick.
type snapBase struct {
	sn   *Snapshot
	ents []atomic.Pointer[Entry]
}

// matchPair reports whether record j is (name, instance), comparing
// against the arena without materializing anything.
func (sb *snapBase) matchPair(j int, name, instance string) bool {
	n, inst := sb.sn.nameInstAt(j)
	return n == name && inst == instance
}

// entry returns the stable materialized form of record j.
func (sb *snapBase) entry(j int) *Entry {
	if p := sb.ents[j].Load(); p != nil {
		return p
	}
	e := new(Entry)
	sb.sn.decodeRecord(j, e)
	if sb.ents[j].CompareAndSwap(nil, e) {
		return e
	}
	return sb.ents[j].Load()
}

// baseLen returns the number of base records (either form).
func (ix *epochIndex) baseLen() int {
	if ix.snap != nil {
		return len(ix.snap.ents)
	}
	return len(ix.slab)
}

// baseCompareID three-way compares base record j's ID to id in
// joined-string order (the merge order fold and Range walk in).
func (ix *epochIndex) baseCompareID(j int, id string) int {
	if sb := ix.snap; sb != nil {
		name, inst := sb.sn.nameInstAt(j)
		return comparePairID(name, inst, id)
	}
	return compareEntryID(&ix.slab[j], id)
}

// baseCopyAt copies base record j for a rebuilt slab, carrying the key
// cache along when the record has a materialized form.
func (ix *epochIndex) baseCopyAt(j int) Entry {
	if sb := ix.snap; sb != nil {
		if p := sb.ents[j].Load(); p != nil {
			return copyEntry(p)
		}
		var e Entry
		sb.sn.decodeRecord(j, &e)
		return e
	}
	return copyEntry(&ix.slab[j])
}

// baseCloneAt clones base record j (Range's per-entry copy).
func (ix *epochIndex) baseCloneAt(j int) *Entry {
	if sb := ix.snap; sb != nil {
		if p := sb.ents[j].Load(); p != nil {
			return p.clone()
		}
		var e Entry
		sb.sn.decodeRecord(j, &e)
		return e.clone()
	}
	return ix.slab[j].clone()
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

// lookup resolves id against the index: delta first (authoritative for
// anything it holds, including tombstones), then the slab table.
func (ix *epochIndex) lookup(h uint64, id string) (*Entry, bool) {
	if mid := ix.root[h&(deltaFan-1)]; mid != nil {
		if b := mid.buckets[(h>>6)&(deltaFan-1)]; b != nil {
			for i := range b.slots {
				s := &b.slots[i]
				if s.h == h && s.id == id {
					if s.e == nil {
						return nil, false // tombstone
					}
					return s.e, true
				}
			}
		}
	}
	return ix.baseLookup(h, id)
}

// lookupPair is lookup keyed by the (name, instance) pair, so the hot
// path never renders the joined ID.
func (ix *epochIndex) lookupPair(h uint64, name, instance string) (*Entry, bool) {
	if mid := ix.root[h&(deltaFan-1)]; mid != nil {
		if b := mid.buckets[(h>>6)&(deltaFan-1)]; b != nil {
			for i := range b.slots {
				s := &b.slots[i]
				if s.h == h && idIsPair(s.id, name, instance) {
					if s.e == nil {
						return nil, false
					}
					return s.e, true
				}
			}
		}
	}
	if len(ix.table) == 0 {
		return nil, false
	}
	mask := uint64(len(ix.table) - 1)
	if sb := ix.snap; sb != nil {
		for i := h & mask; ; i = (i + 1) & mask {
			j := ix.table[i]
			if j < 0 {
				return nil, false
			}
			if sb.matchPair(int(j), name, instance) {
				return sb.entry(int(j)), true
			}
		}
	}
	for i := h & mask; ; i = (i + 1) & mask {
		j := ix.table[i]
		if j < 0 {
			return nil, false
		}
		e := &ix.slab[j]
		if e.Name == name && e.Instance == instance {
			return e, true
		}
	}
}

func (ix *epochIndex) baseLookup(h uint64, id string) (*Entry, bool) {
	if len(ix.table) == 0 {
		return nil, false
	}
	mask := uint64(len(ix.table) - 1)
	if sb := ix.snap; sb != nil {
		for i := h & mask; ; i = (i + 1) & mask {
			j := ix.table[i]
			if j < 0 {
				return nil, false
			}
			name, inst := sb.sn.nameInstAt(int(j))
			if idIsPair(id, name, inst) {
				return sb.entry(int(j)), true
			}
		}
	}
	for i := h & mask; ; i = (i + 1) & mask {
		j := ix.table[i]
		if j < 0 {
			return nil, false
		}
		e := &ix.slab[j]
		if entryIsID(e, id) {
			return e, true
		}
	}
}

// FetchShared implements Store: one atomic load, zero locks, zero
// allocations. Entries are immutable-and-replaced, so sharing is safe.
func (s *EpochStore) FetchShared(id string) (*Entry, bool) {
	return s.idx.Load().lookup(hashID(id), id)
}

// FetchSharedPair implements Store — the KDC's GetRO path, which must
// not allocate even for the ID string.
//
//kerb:hotpath
func (s *EpochStore) FetchSharedPair(name, instance string) (*Entry, bool) {
	return s.idx.Load().lookupPair(hashPair(name, instance), name, instance)
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
// (which may alias the mapping), and entries materialize lazily on
// first fetch. This is the KDB4 cold-start path — install cost is O(1)
// in the principal count. The snapshot must stay open for the life of
// the store: delta folds copy arena-aliased strings into heap slabs,
// so even after the snap base is folded away its mapping is referenced.
func (s *EpochStore) installSnapshot(sn *Snapshot, table []int32) {
	ix := &epochIndex{
		snap:  &snapBase{sn: sn, ents: make([]atomic.Pointer[Entry], sn.Count())},
		table: table,
		live:  sn.Count(),
	}
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
	if _, inBase := b.ix.baseLookup(h, id); !inBase {
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
			if _, inBase := b.ix.baseLookup(h, id); inBase {
				s.e = nil // keep the tombstone shadowing the slab
			} else {
				bk.slots = append(bk.slots[:i], bk.slots[i+1:]...)
				b.ix.dirty--
			}
			return
		}
	}
	if _, inBase := b.ix.baseLookup(h, id); inBase {
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

// fold merges the delta down into a fresh slab + table. Entry values
// are copied field-wise so the per-entry decrypted-key cache pointer
// transfers atomically (readers may be CASing it on the old slab while
// the fold runs). A snapshot-backed base folds the same way — its
// records decode into the new slab (aliasing the mapping, which the
// owning SegmentStore keeps open until Close).
func (ix *epochIndex) fold() *epochIndex {
	overlay := ix.sortedOverlay()
	n := ix.baseLen()
	slab := make([]Entry, 0, ix.live)
	si, oi := 0, 0
	for si < n || oi < len(overlay) {
		switch {
		case oi >= len(overlay):
			slab = append(slab, ix.baseCopyAt(si))
			si++
		case si >= n:
			if overlay[oi].e != nil {
				slab = append(slab, copyEntry(overlay[oi].e))
			}
			oi++
		default:
			c := ix.baseCompareID(si, overlay[oi].id)
			switch {
			case c < 0:
				slab = append(slab, ix.baseCopyAt(si))
				si++
			case c > 0:
				if overlay[oi].e != nil {
					slab = append(slab, copyEntry(overlay[oi].e))
				}
				oi++
			default:
				if overlay[oi].e != nil {
					slab = append(slab, copyEntry(overlay[oi].e))
				}
				si++
				oi++
			}
		}
	}
	return indexSlab(slab)
}

// Range implements Store: a clone per entry in globally sorted ID
// order, merging the sorted slab with the sorted overlay.
func (s *EpochStore) Range(fn func(*Entry) bool) {
	ix := s.idx.Load()
	overlay := ix.sortedOverlay()
	n := ix.baseLen()
	si, oi := 0, 0
	for si < n || oi < len(overlay) {
		var e *Entry
		switch {
		case oi >= len(overlay):
			e = ix.baseCloneAt(si)
			si++
		case si >= n:
			e = cloneSlot(overlay[oi].e)
			oi++
		default:
			c := ix.baseCompareID(si, overlay[oi].id)
			switch {
			case c < 0:
				e = ix.baseCloneAt(si)
				si++
			case c > 0:
				e = cloneSlot(overlay[oi].e)
				oi++
			default:
				e = cloneSlot(overlay[oi].e)
				si++
				oi++
			}
		}
		if e == nil {
			continue // tombstone
		}
		if !fn(e) {
			return
		}
	}
}

// cloneSlot clones a delta slot's entry, passing tombstones through.
func cloneSlot(e *Entry) *Entry {
	if e == nil {
		return nil
	}
	return e.clone()
}

// SlabStats reports the published index shape (observability: resident
// cost and delta pressure).
func (s *EpochStore) SlabStats() (slabLen, deltaLen, tableLen int) {
	ix := s.idx.Load()
	return ix.baseLen(), ix.dirty, len(ix.table)
}
