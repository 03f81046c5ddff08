package kdb

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"kerberos/internal/core"
	"kerberos/internal/des"
)

func addN(t testing.TB, db *Database, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		key := des.StringToKey(fmt.Sprintf("pw%d", i), "ATHENA.MIT.EDU")
		if err := db.Add(fmt.Sprintf("user%03d", i), "", key, core.DefaultTGTLife, "test", t0); err != nil {
			t.Fatal(err)
		}
	}
}

// decoded is what a slave makes of journal records shipped to it.
func decoded(t testing.TB, recs []LogRec) []Change {
	t.Helper()
	changes, err := DecodeChanges(EncodeChanges(recs))
	if err != nil {
		t.Fatal(err)
	}
	return changes
}

func TestSerialAdvancesOnEveryWrite(t *testing.T) {
	db := newTestDB(t)
	if db.Serial() != 0 {
		t.Fatalf("fresh serial = %d", db.Serial())
	}
	addN(t, db, 3)
	if db.Serial() != 3 {
		t.Fatalf("serial after 3 adds = %d", db.Serial())
	}
	key, _ := des.NewRandomKey()
	if err := db.SetKey("user000", "", key, "test", t0); err != nil {
		t.Fatal(err)
	}
	if err := db.SetExpiration("user001", "", t0.Add(time.Hour), "test", t0); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete("user002", ""); err != nil {
		t.Fatal(err)
	}
	if db.Serial() != 6 {
		t.Fatalf("serial after 6 writes = %d", db.Serial())
	}
	if db.JournalLen() != 6 {
		t.Fatalf("journal len = %d", db.JournalLen())
	}
	if db.Digest() == 0 {
		t.Fatal("digest still zero after writes")
	}
}

func TestChangesSinceDeltaAndApply(t *testing.T) {
	master := newTestDB(t)
	addN(t, master, 5)

	// Slave starts from a full dump of the master.
	slave := New(master.masterKey)
	slave.SetReadOnly(true)
	if err := slave.LoadDumpShard(0, master.DumpShard(0)); err != nil {
		t.Fatal(err)
	}
	if slave.Serial() != master.Serial() || slave.Digest() != master.Digest() {
		t.Fatalf("slave at (%d,%x), master at (%d,%x)",
			slave.Serial(), slave.Digest(), master.Serial(), master.Digest())
	}

	// Up to date: empty delta.
	if ch, v := master.ChangesSinceShard(0, slave.Serial(), slave.Digest()); v != DeltaOK || len(ch) != 0 {
		t.Fatalf("up-to-date = (%d changes, %v)", len(ch), v)
	}

	// Master churns: a password change, a delete, a new principal.
	key, _ := des.NewRandomKey()
	if err := master.SetKey("user001", "", key, "admin", t0); err != nil {
		t.Fatal(err)
	}
	if err := master.Delete("user004", ""); err != nil {
		t.Fatal(err)
	}
	if err := master.Add("newbie", "", des.StringToKey("pw", "R"), core.DefaultTGTLife, "admin", t0); err != nil {
		t.Fatal(err)
	}

	ch, v := master.ChangesSinceShard(0, slave.Serial(), slave.Digest())
	if v != DeltaOK {
		t.Fatalf("verdict = %v", v)
	}
	if len(ch) != 3 {
		t.Fatalf("delta carries %d changes, want 3", len(ch))
	}
	from := DumpMeta{Serial: slave.Serial(), Digest: slave.Digest()}
	payload := EncodeChanges(ch)
	changes, err := DecodeChanges(payload)
	if err != nil {
		t.Fatal(err)
	}
	if err := slave.ApplyChangesShard(0, changes, master.Digest()); err != nil {
		t.Fatal(err)
	}
	if slave.Serial() != master.Serial() || slave.Digest() != master.Digest() {
		t.Fatalf("slave diverged after apply: (%d,%x) vs (%d,%x)",
			slave.Serial(), slave.Digest(), master.Serial(), master.Digest())
	}
	// The slave's journal owns its records' bytes: reusing the payload
	// buffer leaves what it serves on unchanged.
	clear(payload)
	if got, v := slave.ChangesSinceShard(0, from.Serial, from.Digest); v != DeltaOK ||
		!bytes.Equal(EncodeChanges(got), EncodeChanges(ch)) {
		t.Fatalf("slave journal does not serve the master's records after the payload was reused (%v)", v)
	}
	if !bytes.Equal(slave.DumpShard(0), master.DumpShard(0)) {
		t.Fatal("slave contents differ from master after delta apply")
	}
	// The deleted principal is gone, the new one resolvable.
	if _, err := slave.Get("user004", ""); !errors.Is(err, ErrNotFound) {
		t.Fatalf("deleted principal err = %v", err)
	}
	if _, err := slave.Get("newbie", ""); err != nil {
		t.Fatalf("new principal err = %v", err)
	}
	// The hot-key table must not serve the pre-delta key.
	e, err := slave.Get("user001", "")
	if err != nil {
		t.Fatal(err)
	}
	got, err := slave.Key(e)
	if err != nil {
		t.Fatal(err)
	}
	if got != key {
		t.Fatal("slave served stale key after delta apply")
	}
}

func TestChangesSinceFallbacks(t *testing.T) {
	master := newTestDB(t)
	master.SetJournalCap(4)
	addN(t, master, 10) // journal retains only serials 7..10

	// Too far behind: retention fallback.
	if _, v := master.ChangesSinceShard(0, 2, 123); v != FallbackRetention {
		t.Fatalf("stale slave verdict = %v", v)
	}
	// Ahead of the master: a slave from the future (or another lineage).
	if _, v := master.ChangesSinceShard(0, 99, 123); v != FallbackAhead {
		t.Fatalf("ahead verdict = %v", v)
	}
	// Known serial, wrong digest: divergence.
	if _, v := master.ChangesSinceShard(0, 8, 0xdeadbeef); v != FallbackDivergence {
		t.Fatalf("divergent verdict = %v", v)
	}
	// Same serial, wrong digest: divergence too.
	if _, v := master.ChangesSinceShard(0, master.Serial(), 0xdeadbeef); v != FallbackDivergence {
		t.Fatalf("same-serial divergent verdict = %v", v)
	}
	// Boundary: the oldest retained change is serial 7, so a slave at 6
	// is servable via the pre-base digest.
	var at6 uint64
	{
		// Rebuild the digest history independently to find the value at 6.
		probe := newTestDB(t)
		addN(t, probe, 6)
		at6 = probe.Digest()
	}
	ch, v := master.ChangesSinceShard(0, 6, at6)
	if v != DeltaOK || len(ch) != 4 {
		t.Fatalf("boundary delta = (%d changes, %v)", len(ch), v)
	}
}

func TestApplyChangesRejectsGapsAndReplays(t *testing.T) {
	master := newTestDB(t)
	addN(t, master, 3)
	slave := New(master.masterKey)
	slave.SetReadOnly(true)
	if err := slave.LoadDumpShard(0, master.DumpShard(0)); err != nil {
		t.Fatal(err)
	}
	addN2 := func() []LogRec {
		key, _ := des.NewRandomKey()
		if err := master.SetKey("user000", "", key, "x", t0); err != nil {
			t.Fatal(err)
		}
		ch, v := master.ChangesSinceShard(0, slave.Serial(), slave.Digest())
		if v != DeltaOK {
			t.Fatalf("verdict %v", v)
		}
		return ch
	}
	ch := addN2()
	if err := slave.ApplyChangesShard(0, decoded(t, ch), master.Digest()); err != nil {
		t.Fatal(err)
	}
	// Replay: first serial ≤ current.
	if err := slave.ApplyChangesShard(0, decoded(t, ch), 0); !errors.Is(err, ErrSerialGap) {
		t.Fatalf("replay err = %v", err)
	}
	// Gap: skip ahead.
	gap := []Change{{LogRec: LogRec{Serial: slave.Serial() + 5}, Op: ChangeDelete, Entry: &Entry{Name: "x"}}}
	if err := slave.ApplyChangesShard(0, gap, 0); !errors.Is(err, ErrSerialGap) {
		t.Fatalf("gap err = %v", err)
	}
	// Wrong digest: all-or-nothing, nothing applied.
	ch2 := addN2()
	before := slave.Serial()
	if err := slave.ApplyChangesShard(0, decoded(t, ch2), 0xbad); !errors.Is(err, ErrSerialGap) {
		t.Fatalf("digest err = %v", err)
	}
	if slave.Serial() != before {
		t.Fatal("failed apply advanced the serial")
	}
	if err := slave.ApplyChangesShard(0, decoded(t, ch2), master.Digest()); err != nil {
		t.Fatal(err)
	}
}

func TestEncodeDecodeChangesRoundTrip(t *testing.T) {
	master := newTestDB(t)
	addN(t, master, 4)
	if err := master.Delete("user002", ""); err != nil {
		t.Fatal(err)
	}
	ch, v := master.ChangesSinceShard(0, 0, 0)
	if v != DeltaOK || len(ch) != 5 {
		t.Fatalf("delta = (%d, %v)", len(ch), v)
	}
	enc := EncodeChanges(ch)
	dec, err := DecodeChanges(enc)
	if err != nil {
		t.Fatal(err)
	}
	if len(dec) != len(ch) {
		t.Fatalf("decoded %d changes, want %d", len(dec), len(ch))
	}
	for i := range ch {
		if dec[i].Serial != ch[i].Serial || !bytes.Equal(dec[i].Enc, ch[i].Enc) {
			t.Fatalf("change %d round-trip mismatch", i)
		}
		if dec[i].Op != ChangeUpsert || dec[i].Entry.Name == "user002" {
			continue // deleted since
		}
		if want, err := master.Get(dec[i].Entry.Name, ""); err != nil || !entryEqual(dec[i].Entry, want) {
			t.Fatalf("change %d decodes to %+v, master holds %+v", i, dec[i].Entry, want)
		}
	}
	if dec[4].Op != ChangeDelete || dec[4].Entry.ID() != ID("user002", "") {
		t.Fatalf("last change = %+v", dec[4])
	}
	// The decoded records' encodings frame back to the same payload.
	if !bytes.Equal(EncodeChanges(records(dec)), enc) {
		t.Fatal("re-encode differs")
	}
}

func TestDecodeChangesRejectsCorruption(t *testing.T) {
	master := newTestDB(t)
	addN(t, master, 2)
	ch, _ := master.ChangesSinceShard(0, 0, 0)
	enc := EncodeChanges(ch)
	cases := map[string][]byte{
		"empty":        {},
		"short":        enc[:6],
		"bad magic":    append([]byte("XXXX"), enc[4:]...),
		"trailing":     append(append([]byte(nil), enc...), 0xff),
		"huge count":   append([]byte{'K', 'C', 'H', '1', 0xff, 0xff, 0xff, 0xff}, enc[8:]...),
		"truncated":    enc[:len(enc)-3],
		"unknown op":   func() []byte { b := append([]byte(nil), enc...); b[8] = 99; return b }(),
		"serial break": func() []byte { b := append([]byte(nil), enc...); b[16] ^= 0x01; return b }(),
	}
	for name, data := range cases {
		if _, err := DecodeChanges(data); err == nil {
			t.Errorf("%s: decoded without error", name)
		}
	}
}

func TestDumpV2CarriesMetaAndV1StillLoads(t *testing.T) {
	db := newTestDB(t)
	addN(t, db, 3)
	dump := db.DumpShard(0)
	entries, meta, err := ParseDumpFull(dump)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Serial != 3 || meta.Digest != db.Digest() || len(entries) != 3 {
		t.Fatalf("meta = %+v, %d entries", meta, len(entries))
	}
	// A v1 dump (legacy: no metadata after the magic) still parses, at
	// serial 0.
	v1 := append(append([]byte(nil), dumpMagic[:]...), dump[4+16:]...)
	got, meta1, err := ParseDumpFull(v1)
	if err != nil {
		t.Fatal(err)
	}
	if meta1 != (DumpMeta{}) || len(got) != 3 {
		t.Fatalf("v1 meta = %+v, %d entries", meta1, len(got))
	}
	// LoadDumpShard adopts the v2 meta.
	slave := New(db.masterKey)
	if err := slave.LoadDumpShard(0, dump); err != nil {
		t.Fatal(err)
	}
	if slave.Serial() != 3 || slave.Digest() != db.Digest() {
		t.Fatalf("slave meta after load = (%d, %x)", slave.Serial(), slave.Digest())
	}
}

func TestJournalRetentionTrim(t *testing.T) {
	db := newTestDB(t)
	db.SetJournalCap(8)
	addN(t, db, 20)
	if db.JournalLen() != 8 {
		t.Fatalf("journal len = %d, want 8", db.JournalLen())
	}
	// Serial 12 is the last trimmed change; a slave at 12 is servable via
	// the pre-base digest, a slave at 11 is not.
	probe := newTestDB(t)
	addN(t, probe, 12)
	if ch, v := db.ChangesSinceShard(0, 12, probe.Digest()); v != DeltaOK || len(ch) != 8 {
		t.Fatalf("boundary = (%d, %v)", len(ch), v)
	}
	if _, v := db.ChangesSinceShard(0, 11, 1); v != FallbackRetention {
		t.Fatalf("past-retention verdict = %v", v)
	}
}

// TestKillMidSaveLeavesOldDump proves the temp+fsync+rename discipline
// of WriteFileAtomic (every base install goes through it): a process
// killed while saving leaves either the old dump or the new one, never
// a torn file. The child process overwrites a dump in a loop, saying so
// on stdout once its first save is complete; the parent then kills it
// mid-flight.
func TestKillMidSaveLeavesOldDump(t *testing.T) {
	if os.Getenv("KDB_KILL_CHILD") == "1" {
		path := os.Getenv("KDB_KILL_PATH")
		db := New(des.StringToKey("master", "R"))
		for i := 0; ; i++ {
			key := des.StringToKey(fmt.Sprintf("pw%d", i), "R")
			name := fmt.Sprintf("churn%06d", i)
			if err := db.Add(name, "", key, core.DefaultTGTLife, "child", t0); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			if err := WriteFileAtomic(path, db.DumpShard(0), 0o600); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
			if i == 0 {
				fmt.Println(killChildSaved)
			}
		}
	}

	dir := t.TempDir()
	path := filepath.Join(dir, "kdb")
	for round := 0; round < 3; round++ {
		cmd := exec.Command(os.Args[0], "-test.run", "^TestKillMidSaveLeavesOldDump$")
		cmd.Env = append(os.Environ(), "KDB_KILL_CHILD=1", "KDB_KILL_PATH="+path)
		stdout, err := cmd.StdoutPipe()
		if err != nil {
			t.Fatal(err)
		}
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		saved := false
		for sc := bufio.NewScanner(stdout); !saved && sc.Scan(); {
			saved = sc.Text() == killChildSaved
		}
		if saved {
			time.Sleep(time.Duration(10+round*20) * time.Millisecond)
		}
		if err := cmd.Process.Kill(); err != nil {
			t.Fatal(err)
		}
		cmd.Wait()
		if !saved {
			t.Fatalf("round %d: the child exited before its first save", round)
		}

		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := ParseDumpFull(data); err != nil {
			t.Fatalf("round %d: dump torn after kill: %v", round, err)
		}
	}
}

// killChildSaved is the line TestKillMidSaveLeavesOldDump's child prints
// once its first save is complete.
const killChildSaved = "first save complete"

// TestDecodeChangesImplausibleCount proves a hostile count prefix cannot
// amplify a tiny delta into a multi-megabyte pre-allocation: each change
// needs at least 11 bytes of payload, so any count the payload cannot
// hold is rejected up front.
func TestDecodeChangesImplausibleCount(t *testing.T) {
	hostile := append([]byte{'K', 'C', 'H', '1', 0xff, 0xff, 0xff, 0xff}, make([]byte, 32)...)
	if _, err := DecodeChanges(hostile); !errors.Is(err, ErrBadChanges) {
		t.Fatalf("hostile count accepted: %v", err)
	}
	// A plausible-but-wrong count still fails structurally, not by panic.
	short := append([]byte{'K', 'C', 'H', '1', 0, 0, 0, 2}, make([]byte, 22)...)
	if _, err := DecodeChanges(short); !errors.Is(err, ErrBadChanges) {
		t.Fatalf("truncated payload accepted: %v", err)
	}
	// The boundary holds: a real one-change set still decodes.
	db := newTestDB(t)
	addN(t, db, 1)
	changes, verdict := db.ChangesSinceShard(0, 0, 0)
	if verdict != DeltaOK {
		t.Fatalf("verdict %v", verdict)
	}
	enc := EncodeChanges(changes)
	if got, err := DecodeChanges(enc); err != nil || len(got) != 1 {
		t.Fatalf("legitimate change set rejected: %v", err)
	}
}

// failingStore is an in-memory store whose ApplyLogged fails while fail
// is set, as a SegmentStore's does when its disk is full.
type failingStore struct {
	*EpochStore
	fail bool
}

var errDiskFull = errors.New("disk full")

func (s *failingStore) ApplyLogged(recs []LogRec, upserts []*Entry, deletes []string) error {
	if s.fail {
		return errDiskFull
	}
	return s.EpochStore.ApplyLogged(recs, upserts, deletes)
}

// TestMutationStoreError: a mutation whose store append fails returns
// the error and leaves serial, digest, journal and contents as they
// were; the next good mutation lands at serial + 1 and chains.
func TestMutationStoreError(t *testing.T) {
	store := &failingStore{EpochStore: NewEpochStore()}
	db := NewWithStore(followMaster, store)
	addN(t, db, 3)
	serial, digest, jlen := db.Serial(), db.Digest(), db.JournalLen()
	key := des.StringToKey("pw", "R")

	store.fail = true
	for name, mutate := range map[string]func() error{
		"Add":           func() error { return db.Add("new", "", key, core.DefaultTGTLife, "t", t0) },
		"SetKey":        func() error { return db.SetKey("user000", "", key, "t", t0) },
		"SetExpiration": func() error { return db.SetExpiration("user001", "", t0.Add(time.Hour), "t", t0) },
		"Delete":        func() error { return db.Delete("user002", "") },
	} {
		if err := mutate(); !errors.Is(err, errDiskFull) {
			t.Fatalf("%s on a failing store: %v", name, err)
		}
		if db.Serial() != serial || db.Digest() != digest || db.JournalLen() != jlen {
			t.Fatalf("%s: failed mutation moved the shard to (%d, %x, journal %d)",
				name, db.Serial(), db.Digest(), db.JournalLen())
		}
	}
	if db.Len() != 3 {
		t.Fatalf("failed mutations changed the contents: %d principals", db.Len())
	}

	store.fail = false
	if err := db.Delete("user002", ""); err != nil {
		t.Fatal(err)
	}
	recs, v := db.ChangesSinceShard(0, serial, digest)
	if v != DeltaOK || len(recs) != 1 || recs[0].Serial != serial+1 ||
		recs[0].Digest != chainDigest(digest, recs[0].Enc) || db.Digest() != recs[0].Digest {
		t.Fatalf("next mutation does not extend the lineage: %+v, %v", recs, v)
	}
}

// TestApplyChangesDeleteThenReAdd: a delta that deletes a principal and
// adds it back leaves it present, as the master has it.
func TestApplyChangesDeleteThenReAdd(t *testing.T) {
	master := newTestDB(t)
	addN(t, master, 2)
	slave := New(master.masterKey)
	if err := slave.LoadDumpShard(0, master.DumpShard(0)); err != nil {
		t.Fatal(err)
	}
	from := DumpMeta{Serial: master.Serial(), Digest: master.Digest()}
	if err := master.Delete("user001", ""); err != nil {
		t.Fatal(err)
	}
	if err := master.Add("user001", "", des.StringToKey("again", "R"), core.DefaultTGTLife, "t", t0); err != nil {
		t.Fatal(err)
	}
	if err := master.Add("user002", "", des.StringToKey("x", "R"), core.DefaultTGTLife, "t", t0); err != nil {
		t.Fatal(err)
	}
	if err := master.Delete("user002", ""); err != nil {
		t.Fatal(err)
	}
	recs, _ := master.ChangesSinceShard(0, from.Serial, from.Digest)
	if err := slave.ApplyChangesShard(0, decoded(t, recs), master.Digest()); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(slave.DumpShard(0), master.DumpShard(0)) {
		t.Fatalf("slave holds %v, master %v", slave.List(), master.List())
	}
}
