package kdb

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"kerberos/internal/core"
	"kerberos/internal/des"
)

// hotKey returns the key HotKey serves for e.
func hotKey(db *Database, e *Entry) (des.Key, error) {
	var c des.Cipher
	if err := db.HotKey(e, &c); err != nil {
		return des.Key{}, err
	}
	k := c.Key()
	c = des.Cipher{}
	return k, nil
}

// TestKeyCacheHit verifies repeated HotKey calls for the same entry are
// served by the hot-key table — no master-key decryption, no expansion —
// and agree, and that the hit path does not allocate: this is the
// per-ticket key fetch on the KDC hot path, and the AllocsPerRun guard
// for the //kerb:hotpath annotation on Database.HotKey. The copy a hit
// hands out is the caller's own.
func TestKeyCacheHit(t *testing.T) {
	db := newTestDB(t)
	key := des.StringToKey("zanzibar", "ATHENA.MIT.EDUrcmd")
	if err := db.Add("rcmd", "priam", key, core.DefaultTGTLife, "test", t0); err != nil {
		t.Fatal(err)
	}
	e, err := db.Get("rcmd", "priam")
	if err != nil {
		t.Fatal(err)
	}
	got, err := hotKey(db, e)
	if err != nil {
		t.Fatal(err)
	}
	if got != key {
		t.Fatal("first HotKey() wrong")
	}
	// A hit unseals nothing: with the master key gone it still serves.
	db.masterCipher = des.NewCipher(des.StringToKey("not-the-master", "R"))
	var c des.Cipher
	allocs := testing.AllocsPerRun(100, func() {
		if err := db.HotKey(e, &c); err != nil || c.Key() != key {
			t.Fatal("cached HotKey() wrong")
		}
	})
	if allocs != 0 {
		t.Errorf("cached HotKey() allocates %.1f objects/op, want 0", allocs)
	}
	c = des.Cipher{} // the caller's wipe leaves the table's copy alone
	if _, _, ok := HotSlotFor(db, key); !ok {
		t.Fatal("wiping the caller's copy wiped the table's")
	}
}

// TestKeyCacheInvalidatedOnKVNOChange is the correctness condition for
// the hot-key table at all: after SetKey bumps the KVNO, HotKey must
// return the NEW key, never the cached old one.
func TestKeyCacheInvalidatedOnKVNOChange(t *testing.T) {
	db := newTestDB(t)
	oldKey := des.StringToKey("zanzibar", "ATHENA.MIT.EDUjis")
	if err := db.Add("jis", "", oldKey, core.DefaultTGTLife, "test", t0); err != nil {
		t.Fatal(err)
	}
	e, _ := db.Get("jis", "")
	if k, _ := hotKey(db, e); k != oldKey {
		t.Fatal("warm-up lookup wrong")
	}
	newKey := des.StringToKey("new-password", "ATHENA.MIT.EDUjis")
	if err := db.SetKey("jis", "", newKey, "kpasswd", t0.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	e2, _ := db.Get("jis", "")
	if e2.KVNO != e.KVNO+1 {
		t.Fatalf("KVNO = %d, want %d", e2.KVNO, e.KVNO+1)
	}
	got, err := hotKey(db, e2)
	if err != nil {
		t.Fatal(err)
	}
	if got == oldKey {
		t.Fatal("stale cached key returned after password change")
	}
	if got != newKey {
		t.Fatal("wrong key after password change")
	}
	// A caller still holding the OLD entry must not be served the new
	// key: a slot matches on KVNO and sealed key bytes.
	if k, err := hotKey(db, e); err == nil && k == newKey {
		t.Error("old-KVNO entry served the new key")
	}
}

// TestKeyCacheInvalidatedOnReAdd covers the delete/re-register path: the
// fresh principal restarts at KVNO 1, which a stale cache entry for the
// old KVNO-1 key would shadow.
func TestKeyCacheInvalidatedOnReAdd(t *testing.T) {
	db := newTestDB(t)
	oldKey := des.StringToKey("first", "Xjis")
	db.Add("jis", "", oldKey, core.DefaultTGTLife, "test", t0)
	e, _ := db.Get("jis", "")
	hotKey(db, e) // warm the cache at KVNO 1
	if err := db.Delete("jis", ""); err != nil {
		t.Fatal(err)
	}
	newKey := des.StringToKey("second", "Xjis")
	if err := db.Add("jis", "", newKey, core.DefaultTGTLife, "test", t0); err != nil {
		t.Fatal(err)
	}
	e2, _ := db.Get("jis", "")
	got, err := hotKey(db, e2)
	if err != nil {
		t.Fatal(err)
	}
	if got != newKey {
		t.Error("re-registered principal served the pre-delete cached key")
	}
}

// TestKeyCacheConcurrent races lookups against password changes; run
// under -race this is the hot-key table's safety proof, and every observed key
// must be one the principal actually had at that KVNO.
func TestKeyCacheConcurrent(t *testing.T) {
	db := newTestDB(t)
	keys := make([]des.Key, 9)
	for i := range keys {
		keys[i] = des.StringToKey(fmt.Sprintf("pw-%d", i), "Xjis")
	}
	if err := db.Add("jis", "", keys[0], core.DefaultTGTLife, "test", t0); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				e, err := db.GetRO("jis", "")
				if err != nil {
					t.Error(err)
					return
				}
				k, err := hotKey(db, e)
				if err != nil {
					continue // raced with SetKey; entry superseded
				}
				if int(e.KVNO) < 1 || int(e.KVNO) > len(keys) {
					t.Errorf("impossible KVNO %d", e.KVNO)
					return
				}
				if k != keys[e.KVNO-1] {
					t.Errorf("KVNO %d served wrong key", e.KVNO)
					return
				}
			}
		}()
	}
	for i := 1; i < len(keys); i++ {
		if err := db.SetKey("jis", "", keys[i], "kpasswd", t0.Add(time.Duration(i)*time.Minute)); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}
