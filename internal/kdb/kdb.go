// Package kdb is the Kerberos database library (§2.2, §5): "a record is
// held for each principal, containing the name, private key, and
// expiration date of the principal, along with some administrative
// information."
//
// Like the Athena implementation — which moved from INGRES to ndbm — the
// storage layer is a replaceable module behind the Store interface. The
// in-memory EpochStore serves lock-free reads; SegmentStore wraps one and
// persists it as an append-only segment log over a KDB4 snapshot, the
// one on-disk form. Its directory has one writer (kadmind on the master,
// kpropd on a slave); kerberosd and kprop follow it read-only through a
// Follower. Dumps serialize one shard's records for the full-copy
// propagation of §5.3. All private keys are
// encrypted in the master database key ("All passwords in the Kerberos
// database are encrypted in the master database key"), so dumps and
// slave transfers never expose raw keys.
package kdb

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"kerberos/internal/core"
	"kerberos/internal/des"
)

// DefaultExpiration is how far in the future a new principal's entry
// expires: "usually set to a few years into the future at registration"
// (§2.2).
const DefaultExpiration = 3 * 365 * 24 * time.Hour

// Entry is one principal record. The private key is held encrypted in
// the master database key; use Database.Key to recover it.
type Entry struct {
	Name     string // primary name
	Instance string // instance ("" is the default instance)

	EncKey []byte // principal's private key, sealed in the master key
	KVNO   uint8  // key version, bumped on every password change

	Expiration time.Time // entry invalid after this date
	MaxLife    core.Lifetime

	// Administrative information.
	ModTime time.Time // last modification
	ModBy   string    // principal that made the last modification

	// keycache caches the entry's decrypted private key as its expanded
	// schedule (*des.Cipher, which also carries the key), filled by
	// Database.Key or KeyCipher on first use.
	// Stored entries are immutable-and-replaced, so a cache riding on
	// the entry can never serve a stale key: any mutation (password
	// change, delta install, reload) produces a new Entry with an empty
	// cache, and the old entry keeps the key that matches its own KVNO.
	// Accessed only via atomic.LoadPointer/CompareAndSwapPointer — a raw
	// unsafe.Pointer rather than atomic.Pointer so Entry values stay
	// plainly copyable (clone, slabs) without tripping copylocks.
	keycache unsafe.Pointer
}

// ID renders the store key for a (name, instance) pair.
func ID(name, instance string) string { return name + "." + instance }

// ID returns the entry's store key.
func (e *Entry) ID() string { return ID(e.Name, e.Instance) }

// Principal returns the entry's principal in the given realm.
func (e *Entry) Principal(realm string) core.Principal {
	return core.Principal{Name: e.Name, Instance: e.Instance, Realm: realm}
}

// Expired reports whether the entry is past its expiration date.
func (e *Entry) Expired(now time.Time) bool {
	return !e.Expiration.IsZero() && now.After(e.Expiration)
}

// clone returns a deep copy so callers can't mutate store internals.
// Field-wise (not *e) for two reasons: the copy must not carry the key
// cache of an entry it may be about to diverge from, and a plain read
// of the keycache field would race with a concurrent CAS fill.
func (e *Entry) clone() *Entry {
	return &Entry{
		Name:       e.Name,
		Instance:   e.Instance,
		EncKey:     append([]byte(nil), e.EncKey...),
		KVNO:       e.KVNO,
		Expiration: e.Expiration,
		MaxLife:    e.MaxLife,
		ModTime:    e.ModTime,
		ModBy:      e.ModBy,
	}
}

// copyEntry copies an entry value for a rebuilt slab, carrying the key
// cache along (the entry is unchanged, so its cache stays valid; the
// pointer is read atomically because readers may be filling it).
func copyEntry(e *Entry) Entry {
	c := Entry{
		Name:       e.Name,
		Instance:   e.Instance,
		EncKey:     e.EncKey,
		KVNO:       e.KVNO,
		Expiration: e.Expiration,
		MaxLife:    e.MaxLife,
		ModTime:    e.ModTime,
		ModBy:      e.ModBy,
	}
	c.keycache = atomic.LoadPointer(&e.keycache)
	return c
}

// Store is the replaceable storage module: one narrow contract that
// every backend implements whole. Implementations must be safe for
// concurrent use. Stored entries are immutable (mutation replaces the
// whole entry), so the shared fetches hand out the stored pointer and
// callers must treat it as read-only.
type Store interface {
	// FetchShared returns the stored entry for the rendered ID, or false.
	FetchShared(id string) (*Entry, bool)
	// FetchSharedPair is FetchShared keyed by the un-joined (name,
	// instance) pair, so the KDC's per-request lookup never renders
	// (allocates) the ID string.
	FetchSharedPair(name, instance string) (*Entry, bool)
	// Range calls fn for a copy of every entry, in ID-sorted order,
	// until fn returns false.
	Range(fn func(*Entry) bool)
	// Len returns the number of entries.
	Len() int
	// ApplyLogged applies a set of upserts and deletes in one atomic
	// step — readers see none or all of it — together with the journal
	// records that describe it, in order. A persisting store makes the
	// records (or the lineage of the last one) durable before returning;
	// an in-memory store ignores them.
	ApplyLogged(recs []LogRec, upserts []*Entry, deletes []string) error
	// ReplaceAll atomically swaps the whole contents (a propagated
	// full dump); meta is the lineage the new contents start at. A
	// persisting store makes them durable before returning; on error the
	// store still serves its previous contents.
	ReplaceAll(entries []*Entry, meta DumpMeta) error
	// LoadedMeta reports the lineage the store already holds when a
	// Database is built over it (zero for a fresh or in-memory store).
	LoadedMeta() DumpMeta
}

// Errors returned by Database operations.
var (
	ErrNotFound  = errors.New("kdb: principal not found")
	ErrExists    = errors.New("kdb: principal already exists")
	ErrReadOnly  = errors.New("kdb: database is read-only (slave copy)")
	ErrMasterKey = errors.New("kdb: master key cannot decrypt entry")
)

// Database wraps one or more Store shards with the master database key
// and the read-only discipline of §5: "there is always only one
// definitive copy of the Kerberos database ... Other machines may
// possess read-only copies."
//
// Because every private key in the store is sealed in the master key,
// naive operation pays a master-key DES decryption on every ticket
// issued. The decrypted key (and its expanded schedule) is therefore
// cached on the Entry itself, filled lazily with one atomic CAS. Since
// stored entries are immutable-and-replaced, the cache needs no
// invalidation protocol: a password change or srvtab rotation installs
// a new Entry whose cache is empty, and takes effect immediately.
//
// A Database built with New/NewWithStore has exactly one shard and
// behaves as the classic single-lock-domain database. NewSharded splits
// the principal space by FNV-1a hash of ID(name, instance) into N
// independent shards, each with its own store, lock domain, and change
// journal (per-shard serial + digest), so mutations and kprop deltas on
// different shards never contend — and reads take no lock at all.
type Database struct {
	masterKey    des.Key
	masterCipher *des.Cipher // master key expanded once

	mu       sync.RWMutex
	readOnly bool

	shards []*dbShard
}

// dbShard is one independent slice of the principal space: a store and
// the incremental-propagation state of journal.go. wmu serializes
// mutations so the journal order is the store apply order; serial and
// digest are atomics so reads never contend with writers.
type dbShard struct {
	store Store

	wmu           sync.Mutex
	serial        atomic.Uint64
	digest        atomic.Uint64
	journal       []LogRec
	journalCap    int
	preBaseDigest uint64
}

// New creates a database over a fresh EpochStore (lock-free reads).
func New(masterKey des.Key) *Database {
	return NewWithStore(masterKey, NewEpochStore())
}

// NewWithStore creates a single-shard database over a caller-provided
// Store. A store that carries propagation metadata (a SegmentStore
// re-opening an existing database) seeds the serial and digest.
func NewWithStore(masterKey des.Key, store Store) *Database {
	return NewSharded(masterKey, []Store{store})
}

// NewSharded creates a database over one shard per provided store.
// Principals are assigned to shards by ShardIndex of their ID; the
// shard count is fixed for the lifetime of the database (and of its
// on-disk form).
func NewSharded(masterKey des.Key, stores []Store) *Database {
	if len(stores) == 0 {
		panic("kdb: NewSharded needs at least one store")
	}
	db := &Database{
		masterKey:    masterKey,
		masterCipher: des.NewCipher(masterKey),
		shards:       make([]*dbShard, len(stores)),
	}
	for i, store := range stores {
		meta := store.LoadedMeta()
		sh := &dbShard{store: store, preBaseDigest: meta.Digest}
		sh.serial.Store(meta.Serial)
		sh.digest.Store(meta.Digest)
		db.shards[i] = sh
	}
	return db
}

// Shards reports the shard count (1 for New/NewWithStore databases).
func (db *Database) Shards() int { return len(db.shards) }

// shard routes a principal to its shard.
func (db *Database) shard(name, instance string) *dbShard {
	if len(db.shards) == 1 {
		return db.shards[0]
	}
	return db.shards[ShardIndex(name, instance, len(db.shards))]
}

// SetReadOnly marks the database as a slave copy; all mutation fails
// with ErrReadOnly until propagation replaces the contents.
func (db *Database) SetReadOnly(ro bool) {
	db.mu.Lock()
	db.readOnly = ro
	db.mu.Unlock()
}

// ReadOnly reports whether the database is a slave copy.
func (db *Database) ReadOnly() bool {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.readOnly
}

// MasterKey returns the master database key (needed by propagation to
// authenticate dumps, §5.3).
func (db *Database) MasterKey() des.Key { return db.masterKey }

// Len returns the number of principals.
func (db *Database) Len() int {
	n := 0
	for _, sh := range db.shards {
		n += sh.store.Len()
	}
	return n
}

// ShardLen returns the number of principals in shard i.
func (db *Database) ShardLen(i int) int { return db.shards[i].store.Len() }

func (db *Database) writable() error {
	if db.ReadOnly() {
		return ErrReadOnly
	}
	return nil
}

// Add registers a new principal with the given private key. modBy names
// the administrator (or program) making the change.
func (db *Database) Add(name, instance string, key des.Key, maxLife core.Lifetime, modBy string, now time.Time) error {
	if err := db.writable(); err != nil {
		return err
	}
	if !(core.Principal{Name: name, Instance: instance}).Valid() {
		return fmt.Errorf("kdb: invalid principal %q", ID(name, instance))
	}
	sh := db.shard(name, instance)
	sh.wmu.Lock()
	defer sh.wmu.Unlock()
	// Existence check only: FetchShared avoids cloning the EncKey of an
	// entry we are about to reject anyway.
	if _, ok := sh.store.FetchShared(ID(name, instance)); ok {
		return fmt.Errorf("%w: %s", ErrExists, ID(name, instance))
	}
	e := &Entry{
		Name:       name,
		Instance:   instance,
		EncKey:     db.masterCipher.Seal(key[:]),
		KVNO:       1,
		Expiration: now.Add(DefaultExpiration),
		MaxLife:    maxLife,
		ModTime:    now,
		ModBy:      modBy,
	}
	return sh.apply(ChangeUpsert, e)
}

// Get fetches a principal's entry as a private copy the caller may
// mutate.
func (db *Database) Get(name, instance string) (*Entry, error) {
	return db.shard(name, instance).get(name, instance)
}

// get clones the stored entry for (name, instance).
func (sh *dbShard) get(name, instance string) (*Entry, error) {
	e, ok := sh.store.FetchShared(ID(name, instance))
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, ID(name, instance))
	}
	return e.clone(), nil
}

// GetRO fetches a principal's entry without copying it. The caller must
// treat the entry as read-only. This is the KDC's per-request lookup
// path: no clone, no lock, no allocation — the pair fetch never even
// renders the ID string.
//
//kerb:hotpath
func (db *Database) GetRO(name, instance string) (*Entry, error) {
	if e, ok := db.shard(name, instance).store.FetchSharedPair(name, instance); ok {
		return e, nil
	}
	return nil, notFoundErr(name, instance)
}

// notFoundErr builds the miss-path error off the hot path (the miss
// allocates regardless; keeping fmt out of GetRO keeps the annotation
// honest).
func notFoundErr(name, instance string) error {
	return fmt.Errorf("%w: %s", ErrNotFound, ID(name, instance))
}

// Key returns an entry's decrypted private key, from the entry's own
// cache when filled, otherwise by a master-key decryption (the result
// is cached on the entry with one CAS). No KVNO validation is needed:
// the cache lives and dies with the immutable entry it describes.
//
//kerb:hotpath
func (db *Database) Key(e *Entry) (des.Key, error) {
	c, err := db.KeyCipher(e)
	if err != nil {
		return des.Key{}, err
	}
	return c.Key(), nil
}

// KeyCipher returns the expanded schedule of an entry's decrypted
// private key, the one copy of that key the entry cache holds. The KDC
// seals and unseals with it directly, so a long-lived key is expanded
// once per entry, never per request.
func (db *Database) KeyCipher(e *Entry) (*des.Cipher, error) {
	if p := atomic.LoadPointer(&e.keycache); p != nil {
		return (*des.Cipher)(p), nil
	}
	plain, err := db.masterCipher.Unseal(e.EncKey)
	// The unsealed buffer is the principal's private key in the clear;
	// wipe it on every return path (§4.1; kervet's deferwipe checks it).
	defer clear(plain)
	if err != nil {
		return nil, ErrMasterKey
	}
	c, err := des.NewCipherBytes(plain)
	if err != nil {
		return nil, ErrMasterKey
	}
	// First fill wins, so every caller sees one stable cache identity
	// (losers re-load the winner and drop their duplicate).
	atomic.CompareAndSwapPointer(&e.keycache, nil, unsafe.Pointer(c))
	return (*des.Cipher)(atomic.LoadPointer(&e.keycache)), nil
}

// SetKey changes a principal's private key (password change or srvtab
// rotation), bumping the key version number.
func (db *Database) SetKey(name, instance string, key des.Key, modBy string, now time.Time) error {
	if err := db.writable(); err != nil {
		return err
	}
	sh := db.shard(name, instance)
	sh.wmu.Lock()
	defer sh.wmu.Unlock()
	e, err := sh.get(name, instance)
	if err != nil {
		return err
	}
	e.EncKey = db.masterCipher.Seal(key[:])
	e.KVNO++
	e.ModTime = now
	e.ModBy = modBy
	return sh.apply(ChangeUpsert, e)
}

// SetExpiration changes a principal's expiration date — the
// administrative renewal that keeps long-lived accounts alive past the
// few-years default of §2.2.
func (db *Database) SetExpiration(name, instance string, expiration time.Time, modBy string, now time.Time) error {
	if err := db.writable(); err != nil {
		return err
	}
	sh := db.shard(name, instance)
	sh.wmu.Lock()
	defer sh.wmu.Unlock()
	e, err := sh.get(name, instance)
	if err != nil {
		return err
	}
	e.Expiration = expiration
	e.ModTime = now
	e.ModBy = modBy
	return sh.apply(ChangeUpsert, e)
}

// Delete removes a principal.
func (db *Database) Delete(name, instance string) error {
	if err := db.writable(); err != nil {
		return err
	}
	sh := db.shard(name, instance)
	sh.wmu.Lock()
	defer sh.wmu.Unlock()
	// Existence check only: no need to clone the doomed entry's EncKey.
	if _, ok := sh.store.FetchShared(ID(name, instance)); !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, ID(name, instance))
	}
	return sh.apply(ChangeDelete, &Entry{Name: name, Instance: instance})
}

// Range iterates the database in deterministic (globally ID-sorted)
// order, merging the per-shard sorted ranges.
func (db *Database) Range(fn func(*Entry) bool) {
	if len(db.shards) == 1 {
		db.shards[0].store.Range(fn)
		return
	}
	rangeMerged(db.stores(), fn)
}

// stores returns the per-shard stores in shard order.
func (db *Database) stores() []Store {
	stores := make([]Store, len(db.shards))
	for i, sh := range db.shards {
		stores[i] = sh.store
	}
	return stores
}

// rangeMerged iterates a set of stores (each of which ranges in sorted
// order) as one globally ID-sorted sequence, so a sharded database lists
// in the same order as a single-store one.
func rangeMerged(stores []Store, fn func(*Entry) bool) {
	lists := make([][]*Entry, len(stores))
	for i, s := range stores {
		lists[i] = make([]*Entry, 0, s.Len())
		s.Range(func(e *Entry) bool {
			lists[i] = append(lists[i], e)
			return true
		})
	}
	heads := make([]int, len(lists))
	for {
		best := -1
		for i, l := range lists {
			if heads[i] >= len(l) {
				continue
			}
			if best < 0 || l[heads[i]].ID() < lists[best][heads[best]].ID() {
				best = i
			}
		}
		if best < 0 {
			return
		}
		e := lists[best][heads[best]]
		heads[best]++
		if !fn(e) {
			return
		}
	}
}

// List returns all entry IDs in sorted order (kadmin's listing).
func (db *Database) List() []string {
	ids := make([]string, 0, db.Len())
	db.Range(func(e *Entry) bool {
		ids = append(ids, e.ID())
		return true
	})
	return ids
}
