package kdb

import "kerberos/internal/des"

// HotSlotFor finds the hot-key table slot holding key's schedule and
// returns its position (set, way), or ok false.
func HotSlotFor(db *Database, key des.Key) (set, way int, ok bool) {
	for i := range db.hot {
		s := &db.hot[i]
		s.mu.Lock()
		for j := range s.ways {
			if w := &s.ways[j]; w.full && w.c.Key() == key {
				s.mu.Unlock()
				return i, j, true
			}
		}
		s.mu.Unlock()
	}
	return 0, 0, false
}

// HotSlotZero reports whether the slot at (set, way) reads as all
// zeros: schedule, key, sealed bytes and tags.
func HotSlotZero(db *Database, set, way int) bool {
	s := &db.hot[set]
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ways[way] == hotSlot{}
}

// HotSlotKey returns the key the slot at (set, way) was expanded from.
func HotSlotKey(db *Database, set, way int) des.Key {
	s := &db.hot[set]
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.ways[way].c.Key()
}
