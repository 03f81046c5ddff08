package kdb

import (
	"encoding/binary"
	"errors"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"kerberos/internal/core"
	"kerberos/internal/des"
)

var t0 = time.Date(1988, 2, 9, 12, 0, 0, 0, time.UTC)

func newTestDB(t testing.TB) *Database {
	t.Helper()
	return New(des.StringToKey("master-password", "ATHENA.MIT.EDU"))
}

func TestAddGetKeyRoundTrip(t *testing.T) {
	db := newTestDB(t)
	key := des.StringToKey("zanzibar", "ATHENA.MIT.EDUjis")
	if err := db.Add("jis", "", key, core.DefaultTGTLife, "kdb_init", t0); err != nil {
		t.Fatal(err)
	}
	e, err := db.Get("jis", "")
	if err != nil {
		t.Fatal(err)
	}
	if e.Name != "jis" || e.Instance != "" || e.KVNO != 1 {
		t.Errorf("entry = %+v", e)
	}
	if !e.Expiration.Equal(t0.Add(DefaultExpiration)) {
		t.Errorf("expiration = %v, want a few years out", e.Expiration)
	}
	got, err := db.Key(e)
	if err != nil {
		t.Fatal(err)
	}
	if got != key {
		t.Error("decrypted key differs from stored key")
	}
	// Keys in the store are never in the clear.
	for i := 0; i+des.KeySize <= len(e.EncKey); i++ {
		if [8]byte(e.EncKey[i:i+8]) == [8]byte(key) {
			t.Error("raw key visible inside stored entry")
		}
	}
}

func TestAddDuplicateAndInvalid(t *testing.T) {
	db := newTestDB(t)
	key, _ := des.NewRandomKey()
	if err := db.Add("jis", "", key, 0, "x", t0); err != nil {
		t.Fatal(err)
	}
	if err := db.Add("jis", "", key, 0, "x", t0); !errors.Is(err, ErrExists) {
		t.Errorf("duplicate add error = %v", err)
	}
	if err := db.Add("", "", key, 0, "x", t0); err == nil {
		t.Error("empty name accepted")
	}
	if err := db.Add("a@b", "", key, 0, "x", t0); err == nil {
		t.Error("name with @ accepted")
	}
}

func TestGetMissing(t *testing.T) {
	db := newTestDB(t)
	if _, err := db.Get("nobody", ""); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing principal error = %v", err)
	}
}

func TestSetKeyBumpsKVNO(t *testing.T) {
	db := newTestDB(t)
	k1 := des.StringToKey("old", "R")
	k2 := des.StringToKey("new", "R")
	if err := db.Add("jis", "", k1, 0, "x", t0); err != nil {
		t.Fatal(err)
	}
	if err := db.SetKey("jis", "", k2, "jis", t0.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	e, _ := db.Get("jis", "")
	if e.KVNO != 2 {
		t.Errorf("KVNO = %d, want 2", e.KVNO)
	}
	if e.ModBy != "jis" || !e.ModTime.Equal(t0.Add(time.Hour)) {
		t.Errorf("administrative info not updated: %+v", e)
	}
	got, err := db.Key(e)
	if err != nil || got != k2 {
		t.Errorf("new key = %v, %v", got, err)
	}
	if err := db.SetKey("ghost", "", k2, "x", t0); !errors.Is(err, ErrNotFound) {
		t.Errorf("SetKey on missing principal = %v", err)
	}
}

func TestDelete(t *testing.T) {
	db := newTestDB(t)
	key, _ := des.NewRandomKey()
	if err := db.Add("tmp", "host", key, 0, "x", t0); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete("tmp", "host"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Get("tmp", "host"); !errors.Is(err, ErrNotFound) {
		t.Error("deleted entry still present")
	}
	if err := db.Delete("tmp", "host"); !errors.Is(err, ErrNotFound) {
		t.Errorf("double delete error = %v", err)
	}
}

// TestReadOnlySlave reproduces §5: "slave copies are read-only", but
// propagation (LoadDump) still refreshes them.
func TestReadOnlySlave(t *testing.T) {
	master := newTestDB(t)
	key, _ := des.NewRandomKey()
	if err := master.Add("jis", "", key, 0, "x", t0); err != nil {
		t.Fatal(err)
	}

	slave := New(master.MasterKey())
	slave.SetReadOnly(true)
	if !slave.ReadOnly() {
		t.Fatal("slave not read-only")
	}
	if err := slave.Add("evil", "", key, 0, "x", t0); !errors.Is(err, ErrReadOnly) {
		t.Errorf("slave Add = %v", err)
	}
	if err := slave.SetKey("jis", "", key, "x", t0); !errors.Is(err, ErrReadOnly) {
		t.Errorf("slave SetKey = %v", err)
	}
	if err := slave.Delete("jis", ""); !errors.Is(err, ErrReadOnly) {
		t.Errorf("slave Delete = %v", err)
	}
	// Propagation bypasses read-only.
	if err := slave.LoadDumpShard(0, master.DumpShard(0)); err != nil {
		t.Fatal(err)
	}
	e, err := slave.Get("jis", "")
	if err != nil {
		t.Fatal(err)
	}
	if k, err := slave.Key(e); err != nil || k != key {
		t.Errorf("slave cannot decrypt propagated key: %v", err)
	}
}

func TestWrongMasterKey(t *testing.T) {
	db := newTestDB(t)
	key, _ := des.NewRandomKey()
	if err := db.Add("jis", "", key, 0, "x", t0); err != nil {
		t.Fatal(err)
	}
	e, _ := db.Get("jis", "")
	other := New(des.StringToKey("wrong-master", "R"))
	if _, err := other.Key(e); !errors.Is(err, ErrMasterKey) {
		t.Errorf("wrong master key error = %v", err)
	}
}

func TestDumpDeterministicAndComplete(t *testing.T) {
	db := newTestDB(t)
	for _, name := range []string{"zeta", "alpha", "mu", "krbtgt", "rlogin"} {
		key, _ := des.NewRandomKey()
		if err := db.Add(name, "inst", key, 42, "init", t0); err != nil {
			t.Fatal(err)
		}
	}
	d1 := db.DumpShard(0)
	d2 := db.DumpShard(0)
	if string(d1) != string(d2) {
		t.Error("dump not deterministic")
	}
	entries, err := ParseDump(d1)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 5 {
		t.Fatalf("parsed %d entries, want 5", len(entries))
	}
	// Sorted by ID.
	for i := 1; i < len(entries); i++ {
		if entries[i-1].ID() >= entries[i].ID() {
			t.Error("dump not sorted")
		}
	}
}

func TestDumpLoadRoundTrip(t *testing.T) {
	db := newTestDB(t)
	key, _ := des.NewRandomKey()
	if err := db.Add("jis", "", key, 95, "init", t0); err != nil {
		t.Fatal(err)
	}
	if err := db.SetKey("jis", "", key, "jis", t0.Add(time.Minute)); err != nil {
		t.Fatal(err)
	}

	db2 := New(db.MasterKey())
	if err := db2.LoadDumpShard(0, db.DumpShard(0)); err != nil {
		t.Fatal(err)
	}
	e1, _ := db.Get("jis", "")
	e2, err := db2.Get("jis", "")
	if err != nil {
		t.Fatal(err)
	}
	if e1.KVNO != e2.KVNO || !e1.Expiration.Equal(e2.Expiration) ||
		e1.MaxLife != e2.MaxLife || e1.ModBy != e2.ModBy || !e1.ModTime.Equal(e2.ModTime) {
		t.Errorf("entries differ after dump/load:\n%+v\n%+v", e1, e2)
	}
}

func TestParseDumpRejectsCorruption(t *testing.T) {
	db := newTestDB(t)
	key, _ := des.NewRandomKey()
	for _, n := range []string{"a", "b", "c"} {
		if err := db.Add(n, "", key, 0, "x", t0); err != nil {
			t.Fatal(err)
		}
	}
	dump := db.DumpShard(0)
	if _, err := ParseDump(nil); err == nil {
		t.Error("nil dump accepted")
	}
	if _, err := ParseDump([]byte("XXXX")); err == nil {
		t.Error("bad magic accepted")
	}
	if _, err := ParseDump(dump[:len(dump)-3]); err == nil {
		t.Error("truncated dump accepted")
	}
	if _, err := ParseDump(append(append([]byte(nil), dump...), 1, 2, 3)); err == nil {
		t.Error("trailing garbage accepted")
	}
}

// TestParseDumpImplausibleCount proves a hostile entry count cannot
// turn a few header bytes into a huge pre-allocation: every encoded
// entry needs at least minEntrySize bytes, so a count the rest of the
// dump cannot hold is rejected before anything is reserved — for every
// header version.
func TestParseDumpImplausibleCount(t *testing.T) {
	u32 := func(v uint32) []byte { return binary.BigEndian.AppendUint32(nil, v) }
	meta := make([]byte, 16)
	headers := map[string][]byte{
		"v1": dumpMagic[:],
		"v2": append(dumpMagicV2[:], meta...),
	}
	for name, hdr := range headers {
		for _, count := range []uint32{1 << 24, 1<<32 - 1, 2} {
			dump := append(append(append([]byte(nil), hdr...), u32(count)...), make([]byte, 2*minEntrySize-1)...)
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := ParseDump(dump)
			runtime.ReadMemStats(&after)
			if !errors.Is(err, ErrBadDump) {
				t.Errorf("%s count %d: err = %v, want ErrBadDump", name, count, err)
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
				t.Errorf("%s count %d: parsing allocated %d bytes", name, count, alloc)
			}
		}
	}
	// The bound is exact: a dump holding two minimal entries parses.
	minimal := &Entry{Expiration: time.Unix(0, 0).UTC(), ModTime: time.Unix(0, 0).UTC()}
	dump := EncodeEntriesAt([]*Entry{minimal, minimal}, DumpMeta{})
	if len(dump) != 4+16+4+2*minEntrySize {
		t.Fatalf("two minimal entries encode to %d bytes", len(dump))
	}
	if got, err := ParseDump(dump); err != nil || len(got) != 2 {
		t.Fatalf("minimal two-entry dump: %d entries, %v", len(got), err)
	}
}

func TestDumpChecksumDetectsTampering(t *testing.T) {
	db := newTestDB(t)
	key, _ := des.NewRandomKey()
	if err := db.Add("jis", "", key, 0, "x", t0); err != nil {
		t.Fatal(err)
	}
	dump := db.DumpShard(0)
	sum := DumpChecksum(db.MasterKey(), dump)
	mut := append([]byte(nil), dump...)
	mut[len(mut)/2] ^= 1
	if DumpChecksum(db.MasterKey(), mut) == sum {
		t.Error("tampered dump has same checksum")
	}
	// A host without the master key computes a different checksum, so it
	// cannot forge an acceptable dump.
	if DumpChecksum(des.StringToKey("intruder", "R"), dump) == sum {
		t.Error("checksum not keyed by master key")
	}
}

func TestExpiredEntry(t *testing.T) {
	e := &Entry{Expiration: t0}
	if e.Expired(t0.Add(-time.Hour)) {
		t.Error("entry expired before its date")
	}
	if !e.Expired(t0.Add(time.Hour)) {
		t.Error("entry not expired after its date")
	}
	if (&Entry{}).Expired(t0) {
		t.Error("zero expiration should mean never")
	}
}

func TestListAndRange(t *testing.T) {
	db := newTestDB(t)
	key, _ := des.NewRandomKey()
	for _, n := range []string{"c", "a", "b"} {
		if err := db.Add(n, "", key, 0, "x", t0); err != nil {
			t.Fatal(err)
		}
	}
	ids := db.List()
	if len(ids) != 3 || ids[0] != "a." || ids[1] != "b." || ids[2] != "c." {
		t.Errorf("List = %v", ids)
	}
	count := 0
	db.Range(func(e *Entry) bool {
		count++
		return count < 2 // early stop
	})
	if count != 2 {
		t.Errorf("Range visited %d entries after early stop, want 2", count)
	}
}

// TestEntryIsolation: entries handed out must not alias store internals.
func TestEntryIsolation(t *testing.T) {
	db := newTestDB(t)
	key, _ := des.NewRandomKey()
	if err := db.Add("jis", "", key, 0, "x", t0); err != nil {
		t.Fatal(err)
	}
	e, _ := db.Get("jis", "")
	e.EncKey[0] ^= 0xff
	e.KVNO = 99
	e2, _ := db.Get("jis", "")
	if e2.KVNO == 99 || e2.EncKey[0] == e.EncKey[0] {
		t.Error("mutating a fetched entry changed the store")
	}
}

// TestDumpRoundTripProperty: Dump→ParseDump is lossless for arbitrary
// names within component rules.
func TestDumpRoundTripProperty(t *testing.T) {
	master := des.StringToKey("m", "R")
	f := func(names []string) bool {
		db := New(master)
		key, _ := des.NewRandomKey()
		added := 0
		for _, raw := range names {
			name := ""
			for _, r := range raw {
				if r > 0x20 && r < 0x7f && r != '.' && r != '@' && len(name) < 20 {
					name += string(r)
				}
			}
			if name == "" {
				continue
			}
			if err := db.Add(name, "", key, 0, "q", t0); err == nil {
				added++
			}
		}
		db2 := New(master)
		if err := db2.LoadDumpShard(0, db.DumpShard(0)); err != nil {
			return false
		}
		return db2.Len() == added
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkDump10k(b *testing.B) {
	db := New(des.StringToKey("m", "R"))
	key, _ := des.NewRandomKey()
	for i := 0; i < 10000; i++ {
		name := "user" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26))
		db.Add(name, ID("inst", string(rune('0'+i%10)))[:5], key, 0, "x", t0)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.DumpShard(0)
	}
}

func TestSetExpiration(t *testing.T) {
	db := newTestDB(t)
	key, _ := des.NewRandomKey()
	if err := db.Add("jis", "", key, 0, "x", t0); err != nil {
		t.Fatal(err)
	}
	renewal := t0.AddDate(10, 0, 0)
	if err := db.SetExpiration("jis", "", renewal, "kadmin", t0.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	e, _ := db.Get("jis", "")
	if !e.Expiration.Equal(renewal) || e.ModBy != "kadmin" {
		t.Errorf("entry after renewal: %+v", e)
	}
	if err := db.SetExpiration("ghost", "", renewal, "x", t0); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing principal = %v", err)
	}
	db.SetReadOnly(true)
	if err := db.SetExpiration("jis", "", renewal, "x", t0); !errors.Is(err, ErrReadOnly) {
		t.Errorf("read-only = %v", err)
	}
}

// entryEqual compares every propagated field.
func entryEqual(a, b *Entry) bool {
	return a.Name == b.Name && a.Instance == b.Instance &&
		string(a.EncKey) == string(b.EncKey) && a.KVNO == b.KVNO &&
		a.Expiration.Equal(b.Expiration) && a.MaxLife == b.MaxLife &&
		a.ModTime.Equal(b.ModTime) && a.ModBy == b.ModBy
}

// loadEntries installs entries into db shard by shard, every shard at
// meta, as a propagated full dump would.
func loadEntries(tb testing.TB, db *Database, entries []*Entry, meta DumpMeta) {
	tb.Helper()
	parts := make([][]*Entry, db.Shards())
	for _, e := range entries {
		i := ShardIndex(e.Name, e.Instance, db.Shards())
		parts[i] = append(parts[i], e)
	}
	for i, part := range parts {
		if err := db.LoadDumpShard(i, EncodeEntriesAt(part, meta)); err != nil {
			tb.Fatal(err)
		}
	}
}
