package kdb

import (
	"crypto/subtle"
	"sync"

	"kerberos/internal/des"
)

// The hot-key table. A KDC uses a few keys on nearly every request —
// the krbtgt key every TGT is sealed under, and the keys of the
// services tickets are issued for — and would otherwise unseal each
// from under the master key and expand it again per request. The table
// keeps those schedules expanded; every other key (a user's, used once
// per login) is unsealed into the caller's Cipher and kept nowhere.
//
// The table is fixed-size and owned by its Database. A slot is
// identified by the sealed key bytes it was expanded from, and every
// use checks them (and the KVNO) against the entry the caller looked
// up, so a slot can never serve a key its entry no longer has: a
// password change, a delta, a resync to a new lineage and a wrapped
// KVNO all show up as a mismatch. A use copies the schedule into the
// caller's Cipher under the set's lock; no pointer into the table ever
// leaves it, so a replaced or evicted schedule is wiped in place at
// once. Writes retire the slots of the principals they change, so a
// changed key is wiped without waiting for its next use.

// The table is hotSets sets of hotWays slots, the set chosen by the
// principal's ID hash: 512 schedules, about 90 KB. An Athena-sized
// realm (65 services, krbtgt, changepw) fits with room to spare: a
// 10 s tgs_flood run hits on all but the first use of each key and
// evicts nothing. A realm with far more services than slots misses on
// most service keys, and a miss costs what a table-less fetch costs
// (an unseal and an expansion, ~0.3 µs) plus the fill; the krbtgt key,
// used by every request, still hits (EXPERIMENTS.md AB10).
const (
	hotSets = 128
	hotWays = 4
)

// hotSealedLen is the length of a sealed DES key (des.Seal of eight
// bytes: header plus one block), the only form a slot takes.
const hotSealedLen = 16

// hotKeys is the table, one Database's.
type hotKeys [hotSets]hotSet

// hotSet is one set of slots behind its lock; next is the round-robin
// victim.
type hotSet struct {
	mu   sync.Mutex
	next uint8
	ways [hotWays]hotSlot
}

// hotSlot is one expanded key: the principal's ID hash (what a retire
// matches), and the KVNO and sealed bytes it was expanded from (what a
// use matches). full is false for an empty or wiped slot.
type hotSlot struct {
	h      uint64
	kvno   uint8
	full   bool
	sealed [hotSealedLen]byte
	c      des.Cipher
}

// matches reports whether s holds e's current key.
func (s *hotSlot) matches(e *Entry) bool {
	return s.full && s.kvno == e.KVNO && subtle.ConstantTimeCompare(s.sealed[:], e.EncKey) == 1
}

// wipe zeroes the slot, schedule and key included.
func (s *hotSlot) wipe() { *s = hotSlot{} }

// HotKey expands e's private key into dst through the hot-key table: a
// slot holding e's key is copied into dst, and otherwise the key is
// unsealed into dst (UnsealKey) and, if e is still the principal's
// current entry, copied into the table for the next use. The KDC
// fetches the keys it seals tickets under this way; the caller owns
// dst and wipes it.
//
//kerb:hotpath
func (db *Database) HotKey(e *Entry, dst *des.Cipher) error {
	if len(e.EncKey) != hotSealedLen {
		return db.UnsealKey(e, dst)
	}
	h := hashPair(e.Name, e.Instance)
	set := &db.hot[h&(hotSets-1)]
	set.mu.Lock()
	for i := range set.ways {
		if s := &set.ways[i]; s.matches(e) {
			*dst = s.c
			set.mu.Unlock()
			return nil
		}
	}
	set.mu.Unlock()
	if err := db.UnsealKey(e, dst); err != nil {
		return err
	}
	db.hotFill(set, h, e, dst)
	return nil
}

// hotFill copies e's schedule c into its set, over the slot of a key
// the principal no longer has if there is one. Only the principal's
// current key may enter, checked under the set's lock: a writer
// publishes its change before it retires the old key under that lock,
// so a request still holding the replaced entry can never put the key
// back once the retire has run.
func (db *Database) hotFill(set *hotSet, h uint64, e *Entry, c *des.Cipher) {
	set.mu.Lock()
	defer set.mu.Unlock()
	for i := range set.ways {
		if set.ways[i].matches(e) {
			return // a concurrent use filled it first
		}
	}
	var cur Entry
	if !db.shard(e.Name, e.Instance).store.Lookup(e.Name, e.Instance, &cur) ||
		cur.KVNO != e.KVNO || subtle.ConstantTimeCompare(cur.EncKey, e.EncKey) != 1 {
		return
	}
	// The principal's stale slot is overwritten first (its old key is
	// wiped by the copy), else an empty slot, else the round-robin
	// victim.
	i := -1
	for j := range set.ways {
		if s := &set.ways[j]; s.full && s.h == h {
			i = j
			break
		}
	}
	for j := 0; i < 0 && j < hotWays; j++ {
		if !set.ways[j].full {
			i = j
		}
	}
	if i < 0 {
		i = int(set.next)
		set.next = (set.next + 1) % hotWays
	}
	set.ways[i] = hotSlot{h: h, kvno: e.KVNO, full: true, sealed: [hotSealedLen]byte(e.EncKey), c: *c}
}

// retire wipes every slot filled for the principal whose ID hashes to
// h. A write calls it once its change is published.
func (t *hotKeys) retire(h uint64) {
	set := &t[h&(hotSets-1)]
	set.mu.Lock()
	for i := range set.ways {
		if s := &set.ways[i]; s.full && s.h == h {
			s.wipe()
		}
	}
	set.mu.Unlock()
}

// retireAll wipes the whole table: a shard's contents were replaced.
func (t *hotKeys) retireAll() {
	for i := range t {
		set := &t[i]
		set.mu.Lock()
		for j := range set.ways {
			set.ways[j].wipe()
		}
		set.mu.Unlock()
	}
}
