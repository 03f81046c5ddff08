package kdb

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"
	"unsafe"

	"kerberos/internal/des"
)

// lookupAgrees checks that every ID of universe reads the same through
// Lookup, Get's clone and Range: present in all three with identical
// fields, or absent from all three.
func lookupAgrees(t *testing.T, stage string, db *Database, universe []string) {
	t.Helper()
	ranged := map[string]*Entry{}
	db.Range(func(e *Entry) bool {
		ranged[e.ID()] = e
		return true
	})
	if len(ranged) != db.Len() {
		t.Fatalf("%s: Range yields %d entries, Len %d", stage, len(ranged), db.Len())
	}
	for _, id := range universe {
		name, instance := splitID(id)
		var got Entry
		lerr := db.Lookup(name, instance, &got)
		clone, gerr := db.Get(name, instance)
		r, inRange := ranged[id]
		if (lerr == nil) != (gerr == nil) || (lerr == nil) != inRange {
			t.Fatalf("%s: %s found by Lookup %v, Get %v, Range %v", stage, id, lerr == nil, gerr == nil, inRange)
		}
		if lerr != nil {
			continue
		}
		if !reflect.DeepEqual(got, *clone) || !reflect.DeepEqual(got, *r) {
			t.Fatalf("%s: %s\nLookup %+v\nGet    %+v\nRange  %+v", stage, id, got, *clone, *r)
		}
	}
}

// TestLookupResidencyDifferential reads every principal through Lookup,
// Get and Range at each residency an entry can have — a heap slab or a
// mapped snapshot base, a delta upsert over it, a tombstone, a
// resurrection, the slab a fold leaves — and after a follower
// re-reads a shard it could not follow record by record.
func TestLookupResidencyDifferential(t *testing.T) {
	master := des.StringToKey("master-password", "ATHENA.MIT.EDU")
	const n = 200
	for _, base := range []string{"slab", "snapshot"} {
		t.Run(base, func(t *testing.T) {
			entries := make([]*Entry, n)
			universe := []string{"fresh.delta", "no.such"}
			for i := range entries {
				entries[i] = mkEntry(i, 0)
				universe = append(universe, entries[i].ID())
			}
			var store *EpochStore
			if base == "snapshot" {
				store = snapshotEpochStore(t, entries)
			} else {
				store = NewEpochStore()
				slab := make([]Entry, n)
				for i, e := range entries {
					slab[i] = *e
				}
				store.InstallSlab(slab)
			}
			db := NewWithStore(master, store)
			lookupAgrees(t, "base", db, universe)

			up, gone := entries[3], entries[5]
			if err := db.SetKey(up.Name, up.Instance, des.StringToKey("new", "R"), "t", t0.Add(time.Hour)); err != nil {
				t.Fatal(err)
			}
			if err := db.Add("fresh", "delta", des.StringToKey("fresh", "R"), 0, "t", t0); err != nil {
				t.Fatal(err)
			}
			lookupAgrees(t, "delta upsert", db, universe)
			if err := db.Delete(gone.Name, gone.Instance); err != nil {
				t.Fatal(err)
			}
			lookupAgrees(t, "tombstone", db, universe)
			if err := db.Add(gone.Name, gone.Instance, des.StringToKey("back", "R"), 0, "t", t0); err != nil {
				t.Fatal(err)
			}
			lookupAgrees(t, "resurrect", db, universe)

			for i := 0; i <= foldThreshold(n); i++ {
				name := fmt.Sprintf("x%04d", i)
				if err := db.Add(name, "", des.StringToKey(name, "R"), 0, "t", t0); err != nil {
					t.Fatal(err)
				}
				universe = append(universe, ID(name, ""))
			}
			if ix := store.idx.Load(); ix.snap != nil || ix.dirty > n {
				t.Fatalf("no fold: snap base %v, %d delta slots", ix.snap != nil, ix.dirty)
			}
			lookupAgrees(t, "after a fold", db, universe)
		})
	}

	t.Run("follower resync", func(t *testing.T) {
		dir := t.TempDir()
		w, segs := openSegDB(t, dir, 1, SegmentOptions{SegmentBytes: 512, CompactAfter: 1000, NoFsync: true})
		addRange(t, w, 0, 20)
		fdb, f := openFollower(t, dir)
		var universe []string
		for i := 0; i < 70; i++ {
			universe = append(universe, ID(fmt.Sprintf("user%04d", i), ""))
		}
		// Records the follower never reads: a fold takes them first.
		addRange(t, w, 20, 60)
		if err := w.SetKey("user0003", "", des.StringToKey("new", "R"), "t", t0.Add(time.Hour)); err != nil {
			t.Fatal(err)
		}
		if err := w.Delete("user0005", ""); err != nil {
			t.Fatal(err)
		}
		if err := segs[0].Compact(); err != nil {
			t.Fatal(err)
		}
		addRange(t, w, 60, 62)
		poll(t, f)
		sameAs(t, "after a missed fold", fdb, w)
		lookupAgrees(t, "follower after resync", fdb, universe)

		// A new lineage under the follower: it adopts a re-read image.
		other := newTestDB(t)
		addRange(t, other, 0, 10)
		if err := w.LoadDumpShard(0, other.DumpShard(0)); err != nil {
			t.Fatal(err)
		}
		poll(t, f)
		sameAs(t, "after a new lineage", fdb, w)
		lookupAgrees(t, "follower after adopting a new lineage", fdb, universe)
	})
}

// TestMappedBaseOutlivesCompaction states the mapped-base contract: a
// base is only ever replaced by WriteFileAtomic's rename, never
// truncated or rewritten in place, so a process that mapped it keeps
// reading every record through its old mapping after the writer
// compacts a new base over it. Both the writer that mapped the base at
// open and a follower of its directory do.
func TestMappedBaseOutlivesCompaction(t *testing.T) {
	dir := t.TempDir()
	opt := SegmentOptions{SegmentBytes: 512, CompactAfter: 1000, NoFsync: true}
	w, segs := openSegDB(t, dir, 1, opt)
	addRange(t, w, 0, 60)
	if err := segs[0].Compact(); err != nil {
		t.Fatal(err)
	}
	segs[0].Close()
	w, segs = openSegDB(t, dir, 1, opt)
	fdb, f := openFollower(t, dir)
	var universe []string
	for i := 0; i < 120; i++ {
		universe = append(universe, ID(fmt.Sprintf("user%04d", i), ""))
	}
	oldBase, err := os.Stat(filepath.Join(dir, shardDirName(0), segBase4Name))
	if err != nil {
		t.Fatal(err)
	}
	mapped := map[string]*Snapshot{
		"writer":   segs[0].mem.idx.Load().snap,
		"follower": f.shards[0].mem.idx.Load().snap,
	}
	for who, sn := range mapped {
		if sn == nil {
			t.Fatalf("%s did not map the base", who)
		}
	}

	// The follower reads each record as it lands, so the new base folds
	// nothing it lacks and it has no reason to re-read the shard.
	for i := 60; i < 120; i++ {
		addRange(t, w, i, i+1)
		poll(t, f)
	}
	if err := segs[0].Compact(); err != nil {
		t.Fatal(err)
	}
	newBase, err := os.Stat(filepath.Join(dir, shardDirName(0), segBase4Name))
	if err != nil {
		t.Fatal(err)
	}
	if os.SameFile(oldBase, newBase) {
		t.Fatal("the compaction did not replace the base")
	}
	poll(t, f)
	sameAs(t, "after the compaction", fdb, w)

	for who, db := range map[string]*Database{"writer": w, "follower": fdb} {
		sn := mapped[who]
		st := db.shards[0].store
		if s, ok := st.(*SegmentStore); ok {
			st = s.mem
		}
		if got := st.(*EpochStore).idx.Load().snap; got != sn {
			t.Fatalf("%s no longer serves its old mapping", who)
		}
		lookupAgrees(t, who, db, universe)
		// Every base record is read in place, from the old mapping.
		if sn.Count() < 20 {
			t.Fatalf("%s: the base holds only %d records", who, sn.Count())
		}
		lo := uintptr(unsafe.Pointer(unsafe.SliceData(sn.data)))
		hi := lo + uintptr(len(sn.data))
		for j := 0; j < sn.Count(); j++ {
			name, instance := sn.nameInstAt(j)
			var e Entry
			if err := db.Lookup(name, instance, &e); err != nil {
				t.Fatalf("%s: %v", who, err)
			}
			if p := uintptr(unsafe.Pointer(unsafe.StringData(e.Name))); p < lo || p >= hi {
				t.Fatalf("%s: %s was not read from the old mapping", who, e.Name)
			}
			var i int
			fmt.Sscanf(name, "user%04d", &i)
			var c des.Cipher
			if err := db.UnsealKey(&e, &c); err != nil || c.Key() != des.StringToKey(fmt.Sprintf("pw%d", i), "R") {
				t.Fatalf("%s: %s key through the old mapping: %v", who, e.Name, err)
			}
		}
	}
}
