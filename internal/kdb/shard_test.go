package kdb

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"kerberos/internal/core"
	"kerberos/internal/des"
)

// TestShardIndexAgreesWithIDHash pins the router to the rendered ID:
// hashing the (name, instance) pair inline must route exactly as
// hashing ID(name, instance) would, or shard placement would depend on
// which form a caller happened to hold.
func TestShardIndexAgreesWithIDHash(t *testing.T) {
	cases := []struct{ name, instance string }{
		{"jis", ""}, {"rcmd", "mole"}, {"changepw", "kerberos"},
		{"u.000", ""}, {"", ""}, {"a", "b.c"},
	}
	for _, n := range []int{1, 2, 3, 8, 16, 97} {
		for _, c := range cases {
			byParts := ShardIndex(c.name, c.instance, n)
			byID := int(hashID(ID(c.name, c.instance)) % uint64(n))
			if byParts != byID {
				t.Errorf("ShardIndex(%q,%q,%d)=%d but the ID hash routes to %d",
					c.name, c.instance, n, byParts, byID)
			}
			if byParts < 0 || byParts >= n {
				t.Errorf("ShardIndex(%q,%q,%d)=%d out of range", c.name, c.instance, n, byParts)
			}
		}
	}
}

func TestShardIndexSpreadsPrincipals(t *testing.T) {
	const n = 16
	counts := make([]int, n)
	for i := 0; i < 10000; i++ {
		counts[ShardIndex(fmt.Sprintf("u%05d", i), "", n)]++
	}
	for i, c := range counts {
		// Perfect balance is 625; FNV on structured names should land
		// every shard within a loose factor of two.
		if c < 300 || c > 1200 {
			t.Errorf("shard %d holds %d of 10000 principals (poor spread)", i, c)
		}
	}
}

func mkEntry(i, rev int) *Entry {
	return &Entry{
		Name:       fmt.Sprintf("u%03d", i),
		Instance:   fmt.Sprintf("i%d", i%3),
		EncKey:     []byte{byte(i), byte(rev), 3, 4, 5, 6, 7, 8},
		KVNO:       uint8(1 + rev%5),
		Expiration: t0.Add(time.Duration(i) * time.Hour),
		MaxLife:    core.Lifetime(i % 256),
		ModTime:    t0.Add(time.Duration(rev) * time.Minute),
		ModBy:      "prop",
	}
}

// splitID undoes ID(): the instance is everything after the last dot
// (names may not contain dots; core.Principal.Valid enforces that).
func splitID(id string) (name, instance string) {
	for i := len(id) - 1; i >= 0; i-- {
		if id[i] == '.' {
			return id[:i], id[i+1:]
		}
	}
	return id, ""
}

// newShardedEpochDB builds an n-shard database over fresh EpochStores.
func newShardedEpochDB(master des.Key, n int) *Database {
	stores := make([]Store, n)
	for i := range stores {
		stores[i] = NewEpochStore()
	}
	return NewSharded(master, stores)
}

// contents encodes every entry of db in global ID order, with no
// lineage: two databases holding the same principals encode the same,
// whatever their shard shapes.
func contents(db *Database) []byte {
	var entries []*Entry
	db.Range(func(e *Entry) bool {
		entries = append(entries, e)
		return true
	})
	return EncodeEntriesAt(entries, DumpMeta{})
}

// TestShardedStoreEquivalence is the sharding property test: a
// database over N EpochStore shards, driven by any seeded random
// sequence of Add/SetKey/SetExpiration/Delete/full loads, is
// observationally equivalent to the flat database driven by the same
// sequence — same per-op errors, Len, List order, Get and Key results,
// and byte-identical contents.
func TestShardedStoreEquivalence(t *testing.T) {
	master := des.StringToKey("master-password", "ATHENA.MIT.EDU")
	keys := make([]des.Key, 6)
	for i := range keys {
		keys[i] = des.StringToKey(fmt.Sprintf("pw%d", i), "R")
	}
	instances := []string{"", "host", "i1"}
	for _, shards := range []int{1, 2, 4, 13} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(1000 + shards)))
			flat := New(master)
			sharded := newShardedEpochDB(master, shards)
			dbs := []*Database{flat, sharded}
			for op := 0; op < 400; op++ {
				name := fmt.Sprintf("u%03d", rng.Intn(60))
				inst := instances[rng.Intn(len(instances))]
				now := t0.Add(time.Duration(op) * time.Minute)
				key := keys[rng.Intn(len(keys))]
				var errs [2]error
				switch k := rng.Intn(20); {
				case k < 8:
					for i, db := range dbs {
						errs[i] = db.Add(name, inst, key, core.Lifetime(k), "t", now)
					}
				case k < 12:
					for i, db := range dbs {
						errs[i] = db.SetKey(name, inst, key, "t", now)
					}
				case k < 15:
					for i, db := range dbs {
						errs[i] = db.SetExpiration(name, inst, now.Add(time.Hour), "t", now)
					}
				case k < 19:
					for i, db := range dbs {
						errs[i] = db.Delete(name, inst)
					}
				default:
					src := New(master)
					for j := rng.Intn(25); j > 0; j-- {
						src.Add(fmt.Sprintf("u%03d", rng.Intn(60)), instances[rng.Intn(3)], key, 0, "load", now)
					}
					entries, err := ParseDump(src.DumpShard(0))
					if err != nil {
						t.Fatal(err)
					}
					for _, db := range dbs {
						loadEntries(t, db, entries, DumpMeta{})
					}
				}
				if (errs[0] == nil) != (errs[1] == nil) {
					t.Fatalf("op %d: flat err %v, sharded err %v", op, errs[0], errs[1])
				}
			}
			if flat.Len() != sharded.Len() {
				t.Fatalf("Len: flat %d, sharded %d", flat.Len(), sharded.Len())
			}
			listA, listB := flat.List(), sharded.List()
			if fmt.Sprint(listA) != fmt.Sprint(listB) {
				t.Fatalf("List: flat %v, sharded %v", listA, listB)
			}
			for _, id := range listA {
				name, instance := splitID(id)
				ea, _ := flat.Get(name, instance)
				eb, err := sharded.Get(name, instance)
				if err != nil || !entryEqual(ea, eb) {
					t.Fatalf("Get(%s) disagrees (%v)", id, err)
				}
				ka, _ := flat.Key(ea)
				if kb, err := sharded.Key(eb); err != nil || ka != kb {
					t.Fatalf("Key(%s) disagrees (%v)", id, err)
				}
			}
			if _, err := sharded.Get("nobody", "nowhere"); err == nil {
				t.Fatal("phantom entry in sharded database")
			}
			if !bytes.Equal(contents(flat), contents(sharded)) {
				t.Fatal("contents of equivalent databases differ")
			}
		})
	}
}

// TestShardedDatabaseEquivalence drives a sharded Database and a classic
// single-shard one through the same mutation sequence and asserts the
// observable state matches: Serial (total mutations), entries, List
// order, and dump entry payloads.
func TestShardedDatabaseEquivalence(t *testing.T) {
	master := des.StringToKey("master-password", "ATHENA.MIT.EDU")
	flat := New(master)
	sharded := newShardedEpochDB(master, 8)

	key := des.StringToKey("pw", "R")
	for i := 0; i < 120; i++ {
		name := fmt.Sprintf("u%03d", i%40)
		switch i % 4 {
		case 0:
			flat.Add(name, "", key, core.DefaultTGTLife, "t", t0)
			sharded.Add(name, "", key, core.DefaultTGTLife, "t", t0)
		case 1:
			k2 := des.StringToKey(fmt.Sprintf("pw%d", i), "R")
			flat.SetKey(name, "", k2, "t", t0)
			sharded.SetKey(name, "", k2, "t", t0)
		case 2:
			flat.SetExpiration(name, "", t0.Add(time.Duration(i)*time.Hour), "t", t0)
			sharded.SetExpiration(name, "", t0.Add(time.Duration(i)*time.Hour), "t", t0)
		default:
			flat.Delete(name, "")
			sharded.Delete(name, "")
		}
	}
	if flat.Serial() != sharded.Serial() {
		t.Fatalf("Serial: flat %d, sharded %d", flat.Serial(), sharded.Serial())
	}
	if flat.Len() != sharded.Len() {
		t.Fatalf("Len: flat %d, sharded %d", flat.Len(), sharded.Len())
	}
	listA, listB := flat.List(), sharded.List()
	if len(listA) != len(listB) {
		t.Fatalf("List lengths differ: %d vs %d", len(listA), len(listB))
	}
	for i := range listA {
		if listA[i] != listB[i] {
			t.Fatalf("List[%d]: %s vs %s", i, listA[i], listB[i])
		}
	}
	for _, id := range listA {
		name, instance := splitID(id)
		ea, _ := flat.Get(name, instance)
		eb, err := sharded.Get(name, instance)
		if err != nil || !entryEqual(ea, eb) {
			t.Fatalf("Get(%s) disagrees (%v)", id, err)
		}
		ka, _ := flat.Key(ea)
		kb, err := sharded.Key(eb)
		if err != nil || ka != kb {
			t.Fatalf("Key(%s) disagrees (%v)", id, err)
		}
	}
	if !bytes.Equal(contents(flat), contents(sharded)) {
		t.Fatal("contents differ")
	}
}

// TestShardedDumpRoundTrip proves per-shard dumps round-trip shard by
// shard, resuming every shard's lineage, and that a shard dump routed to
// the wrong shard is refused.
func TestShardedDumpRoundTrip(t *testing.T) {
	master := des.StringToKey("m", "R")
	mk := func(n int) *Database { return newShardedEpochDB(master, n) }
	src := mk(4)
	addN(t, src, 50)

	// Per-shard dumps round-trip shard by shard.
	dst := mk(4)
	for i := 0; i < 4; i++ {
		if err := dst.LoadDumpShard(i, src.DumpShard(i)); err != nil {
			t.Fatal(err)
		}
	}
	if dst.Len() != 50 || dst.Serial() != src.Serial() {
		t.Fatalf("per-shard load: len %d serial %d", dst.Len(), dst.Serial())
	}
	for i := 0; i < 4; i++ {
		if dst.ShardSerial(i) != src.ShardSerial(i) || dst.ShardDigest(i) != src.ShardDigest(i) {
			t.Fatalf("shard %d lineage not resumed", i)
		}
	}
	// A shard dump routed to the wrong shard is rejected.
	for i := 0; i < 4; i++ {
		if src.ShardLen(i) == 0 {
			continue
		}
		wrong := (i + 1) % 4
		if err := dst.LoadDumpShard(wrong, src.DumpShard(i)); err == nil {
			t.Fatalf("misrouted shard dump %d→%d accepted", i, wrong)
		}
		break
	}
}

// TestShardedDeltaPlane exercises per-shard ChangesSince/ApplyChanges —
// the unit the kprop v3 plane ships.
func TestShardedDeltaPlane(t *testing.T) {
	master := des.StringToKey("m", "R")
	mk := func() *Database { return newShardedEpochDB(master, 4) }
	src := mk()
	dst := mk()
	addN(t, src, 30)
	for i := 0; i < 4; i++ {
		if err := dst.LoadDumpShard(i, src.DumpShard(i)); err != nil {
			t.Fatal(err)
		}
	}
	addN2 := func(db *Database, from, to int) {
		for i := from; i < to; i++ {
			key := des.StringToKey(fmt.Sprintf("pw%d", i), "ATHENA.MIT.EDU")
			if err := db.Add(fmt.Sprintf("user%03d", i), "", key, core.DefaultTGTLife, "test", t0); err != nil {
				t.Fatal(err)
			}
		}
	}
	addN2(src, 30, 45)
	for i := 0; i < 4; i++ {
		changes, verdict := src.ChangesSinceShard(i, dst.ShardSerial(i), dst.ShardDigest(i))
		if verdict != DeltaOK {
			t.Fatalf("shard %d verdict %v", i, verdict)
		}
		if err := dst.ApplyChangesShard(i, decoded(t, changes), src.ShardDigest(i)); err != nil {
			t.Fatalf("shard %d apply: %v", i, err)
		}
	}
	if dst.Len() != 45 || dst.Digest() != src.Digest() {
		t.Fatalf("after per-shard deltas: len %d digest %x vs %x", dst.Len(), dst.Digest(), src.Digest())
	}
	// Misrouted changes are rejected before anything applies.
	changes, verdict := src.ChangesSinceShard(0, 0, 0)
	if verdict != DeltaOK || len(changes) == 0 {
		t.Skip("no retained changes for shard 0")
	}
	for i := 1; i < 4; i++ {
		if err := dst.ApplyChangesShard(i, decoded(t, changes), 0); err == nil {
			t.Fatalf("misrouted delta for shard 0 accepted by shard %d", i)
		}
		break
	}
}
