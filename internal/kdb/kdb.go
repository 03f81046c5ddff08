// Package kdb is the Kerberos database library (§2.2, §5): "a record is
// held for each principal, containing the name, private key, and
// expiration date of the principal, along with some administrative
// information."
//
// Like the Athena implementation — which moved from INGRES to ndbm — the
// storage layer is a replaceable module behind the Store interface. The
// in-memory EpochStore serves lock-free reads; SegmentStore wraps one and
// persists it as an append-only segment log over a KDB4 snapshot, the
// one on-disk form, whose mapped records are read in place. A read
// copies one record into the caller's Entry and keeps nothing; the
// realm's few hot keys, kept expanded in a small fixed table, are the
// one exception (hotkeys.go). Its directory has one writer (kadmind on
// the master, kpropd on a slave); kerberosd and kprop follow it
// read-only through a Follower. Dumps serialize one shard's records for
// the full-copy propagation of §5.3. All private keys are
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
func (e *Entry) clone() *Entry {
	c := *e
	c.EncKey = append([]byte(nil), e.EncKey...)
	return &c
}

// Store is the replaceable storage module: one narrow contract that
// every backend implements whole. Implementations must be safe for
// concurrent use.
type Store interface {
	// Lookup copies the entry for (name, instance) into dst and reports
	// whether there is one. It renders no ID and allocates nothing; the
	// copy's strings and sealed key may alias store memory (a mapped
	// base's arena), so dst is read-only.
	Lookup(name, instance string, dst *Entry) bool
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
// A read leaves nothing behind: Lookup copies a record into the
// caller's Entry (decoding a mapped base record in place), and
// UnsealKey expands its key into the caller's des.Cipher, so serving a
// principal keeps no per-principal memory. Every private key stays
// sealed in the master key in the store. The one exception is the
// realm's few hot keys, the krbtgt key and the service keys tickets are
// sealed under, which every ticket-granting request would otherwise
// unseal and expand again: HotKey serves them from a small table of
// expanded schedules the Database owns (hotkeys.go).
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
	hot    hotKeys
}

// dbShard is one independent slice of the principal space: a store and
// the incremental-propagation state of journal.go. wmu serializes
// mutations so the journal order is the store apply order; serial and
// digest are atomics so reads never contend with writers.
type dbShard struct {
	store Store
	hot   *hotKeys // the Database's; writes retire the keys they replace

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
		sh := &dbShard{store: store, hot: &db.hot, preBaseDigest: meta.Digest}
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
	var cur Entry
	if sh.store.Lookup(name, instance, &cur) {
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
	var e Entry
	if !sh.store.Lookup(name, instance, &e) {
		return nil, notFoundErr(name, instance)
	}
	return e.clone(), nil
}

// Lookup reads a principal's entry into dst, the KDC's per-request
// read: no lock, no allocation, and nothing kept. A record of a mapped
// base is decoded in place, so dst's strings and sealed key may alias
// the mapping or the store's own entry: dst is read-only, and valid
// while the store is open.
//
//kerb:hotpath
func (db *Database) Lookup(name, instance string, dst *Entry) error {
	if db.shard(name, instance).store.Lookup(name, instance, dst) {
		return nil
	}
	return notFoundErr(name, instance)
}

// GetRO fetches a principal's entry into a new read-only Entry: Lookup
// into fresh memory.
func (db *Database) GetRO(name, instance string) (*Entry, error) {
	e := new(Entry)
	if err := db.Lookup(name, instance, e); err != nil {
		return nil, err
	}
	return e, nil
}

// notFoundErr builds the miss-path error off the hot path (the miss
// allocates regardless; keeping fmt out of Lookup keeps the annotation
// honest).
func notFoundErr(name, instance string) error {
	return fmt.Errorf("%w: %s", ErrNotFound, ID(name, instance))
}

// UnsealKey recovers an entry's private key from under the master key
// and expands it into dst. Nothing but dst holds the key afterwards;
// the caller wipes it when done.
func (db *Database) UnsealKey(e *Entry, dst *des.Cipher) error {
	// The unsealed buffer is the principal's private key in the clear;
	// wipe it on every return path (§4.1; kervet's deferwipe checks it).
	var keybuf [hotSealedLen]byte
	defer clear(keybuf[:])
	if len(e.EncKey) > len(keybuf) {
		return ErrMasterKey
	}
	plain, err := db.masterCipher.UnsealTo(keybuf[:], e.EncKey)
	if err != nil || len(plain) != des.KeySize {
		return ErrMasterKey
	}
	dst.SetKey(des.Key(plain))
	return nil
}

// Key returns an entry's decrypted private key, unsealed from under the
// master key on every call. It bypasses the hot-key table: its callers
// (kadmind's changepw service and key extraction) fetch a key once, and
// a user's key must not stay expanded in the table.
//
//kerb:hotpath
func (db *Database) Key(e *Entry) (des.Key, error) {
	var c des.Cipher
	if err := db.UnsealKey(e, &c); err != nil {
		return des.Key{}, err
	}
	k := c.Key()
	c = des.Cipher{}
	return k, nil
}

// KeyCipher returns an entry's private key expanded into a new
// schedule the caller owns (and wipes): UnsealKey into fresh memory.
func (db *Database) KeyCipher(e *Entry) (*des.Cipher, error) {
	c := new(des.Cipher)
	if err := db.UnsealKey(e, c); err != nil {
		return nil, err
	}
	return c, nil
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
	var cur Entry
	if !sh.store.Lookup(name, instance, &cur) {
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
