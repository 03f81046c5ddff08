package kdb

import (
	"testing"
	"time"

	"kerberos/internal/core"
	"kerberos/internal/des"
)

// hotFilled adds a service with a random key to db and fills its hot
// slot, returning the key.
func hotFilled(t *testing.T, db *Database, name, instance string) des.Key {
	t.Helper()
	key, err := des.NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Add(name, instance, key, 0, "test", t0); err != nil {
		t.Fatal(err)
	}
	if k := hotKeyOf(t, db, name, instance); k != key {
		t.Fatal("HotKey served the wrong key")
	}
	if _, _, ok := HotSlotFor(db, key); !ok {
		t.Fatal("HotKey left no slot for the key")
	}
	return key
}

// hotKeyOf looks the principal up and returns the key HotKey serves.
func hotKeyOf(t *testing.T, db *Database, name, instance string) des.Key {
	t.Helper()
	var e Entry
	if err := db.Lookup(name, instance, &e); err != nil {
		t.Fatal(err)
	}
	k, err := hotKey(db, &e)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// TestHotKeyRetiredOnWrite: every path that replaces or removes an
// entry — a local SetKey or Delete, a slave's delta install and a full
// load — wipes the slot that held the old key before it returns, so
// that memory reads as all zeros without waiting for the key's next
// use.
func TestHotKeyRetiredOnWrite(t *testing.T) {
	master := des.StringToKey("master-password", "ATHENA.MIT.EDU")
	newKey := des.StringToKey("new", "R")
	local := map[string]func(db *Database) error{
		"SetKey": func(db *Database) error {
			return db.SetKey("rcmd", "priam", newKey, "test", t0.Add(time.Hour))
		},
		"Delete": func(db *Database) error { return db.Delete("rcmd", "priam") },
	}
	for name, write := range local {
		t.Run(name, func(t *testing.T) {
			db := New(master)
			set, way, _ := HotSlotFor(db, hotFilled(t, db, "rcmd", "priam"))
			if err := write(db); err != nil {
				t.Fatal(err)
			}
			if !HotSlotZero(db, set, way) {
				t.Errorf("%s left the old key's slot unwiped", name)
			}
		})
	}

	// A slave that served the service, then follows the master's change.
	setup := func(t *testing.T) (m, slave *Database, set, way int) {
		m, slave = New(master), New(master)
		key, _ := des.NewRandomKey()
		if err := m.Add("rcmd", "priam", key, 0, "test", t0); err != nil {
			t.Fatal(err)
		}
		if err := slave.LoadDumpShard(0, m.DumpShard(0)); err != nil {
			t.Fatal(err)
		}
		if hotKeyOf(t, slave, "rcmd", "priam") != key {
			t.Fatal("slave served the wrong key")
		}
		if err := m.SetKey("rcmd", "priam", newKey, "test", t0.Add(time.Hour)); err != nil {
			t.Fatal(err)
		}
		set, way, ok := HotSlotFor(slave, key)
		if !ok {
			t.Fatal("the slave's key is not in the hot-key table")
		}
		return m, slave, set, way
	}
	t.Run("delta", func(t *testing.T) {
		m, slave, set, way := setup(t)
		recs, verdict := m.ChangesSinceShard(0, slave.ShardSerial(0), slave.ShardDigest(0))
		if verdict != DeltaOK {
			t.Fatalf("verdict %v", verdict)
		}
		changes, err := DecodeChanges(EncodeChanges(recs))
		if err != nil {
			t.Fatal(err)
		}
		if err := slave.ApplyChangesShard(0, changes, m.ShardDigest(0)); err != nil {
			t.Fatal(err)
		}
		if !HotSlotZero(slave, set, way) {
			t.Error("delta install left the old key's slot unwiped")
		}
		if hotKeyOf(t, slave, "rcmd", "priam") != newKey {
			t.Error("slave serves a stale key after the delta")
		}
	})
	t.Run("full", func(t *testing.T) {
		m, slave, set, way := setup(t)
		if err := slave.LoadDumpShard(0, m.DumpShard(0)); err != nil {
			t.Fatal(err)
		}
		if !HotSlotZero(slave, set, way) {
			t.Error("full load left the old key's slot unwiped")
		}
		if hotKeyOf(t, slave, "rcmd", "priam") != newKey {
			t.Error("slave serves a stale key after the full load")
		}
	})
}

// TestHotKeyValidatesOnUse replaces an entry under the table's feet —
// straight in the store, so no write path retires it — with a new key
// at the same KVNO, the shape a wrapped KVNO or a follower adopting a
// new lineage takes. The slot must not serve the old key: the sealed
// bytes differ, so the use re-expands and the old schedule is wiped.
func TestHotKeyValidatesOnUse(t *testing.T) {
	db := newTestDB(t)
	oldKey := hotFilled(t, db, "rcmd", "priam")
	e, _ := db.Get("rcmd", "priam")
	newKey := des.StringToKey("other", "R")
	e.EncKey = db.masterCipher.Seal(newKey[:])
	db.shards[0].store.(*EpochStore).Put(e)

	if k := hotKeyOf(t, db, "rcmd", "priam"); k != newKey {
		t.Fatal("a slot served a key its entry no longer has")
	}
	if _, _, ok := HotSlotFor(db, oldKey); ok {
		t.Error("the replaced key's schedule is still in the table")
	}
	if _, _, ok := HotSlotFor(db, newKey); !ok {
		t.Error("the current key was not cached")
	}
}

// TestHotKeyStaleEntryNotRefilled: a reader still holding the entry a
// write replaced gets that entry's key, but cannot put it back into the
// table the write retired it from.
func TestHotKeyStaleEntryNotRefilled(t *testing.T) {
	db := newTestDB(t)
	oldKey := hotFilled(t, db, "rcmd", "priam")
	stale, _ := db.GetRO("rcmd", "priam")
	if err := db.SetKey("rcmd", "priam", des.StringToKey("new", "R"), "test", t0.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	var c des.Cipher
	if err := db.HotKey(stale, &c); err != nil || c.Key() != oldKey {
		t.Fatalf("stale entry's key: %v", err)
	}
	if _, _, ok := HotSlotFor(db, oldKey); ok {
		t.Error("a replaced entry's key was put back into the table")
	}
}

// TestHotKeyColdKeysKeepNothing: UnsealKey, KeyCipher and Key, the
// paths of a user's key, leave the table as it was. It is also the
// AllocsPerRun guard for the //kerb:hotpath annotation on Database.Key:
// the unseal allocates nothing.
func TestHotKeyColdKeysKeepNothing(t *testing.T) {
	db := newTestDB(t)
	key := des.StringToKey("zanzibar", "ATHENA.MIT.EDUjis")
	if err := db.Add("jis", "", key, core.DefaultTGTLife, "test", t0); err != nil {
		t.Fatal(err)
	}
	e, _ := db.GetRO("jis", "")
	var c des.Cipher
	if err := db.UnsealKey(e, &c); err != nil || c.Key() != key {
		t.Fatalf("UnsealKey: %v", err)
	}
	if kc, err := db.KeyCipher(e); err != nil || kc.Key() != key {
		t.Fatalf("KeyCipher: %v", err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if k, err := db.Key(e); err != nil || k != key {
			t.Fatalf("Key: %v", err)
		}
	})
	if allocs != 0 {
		t.Errorf("Key allocates %.1f objects/op, want 0", allocs)
	}
	if db.hot != (hotKeys{}) {
		t.Error("a cold key entered the hot-key table")
	}
}
