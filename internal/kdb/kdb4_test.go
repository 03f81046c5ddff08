package kdb

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"syscall"
	"testing"
	"time"

	"kerberos/internal/core"
	"kerberos/internal/des"
)

// kdb4TestEntries builds a fixture set that exercises every field
// shape the format has to carry: empty instances, shared (interned)
// instance and modBy strings, long names, and varied scalars.
func kdb4TestEntries(n int) []*Entry {
	entries := make([]*Entry, n)
	for i := range entries {
		inst := ""
		if i%3 == 1 {
			inst = "host" // interned: repeats across entries
		} else if i%3 == 2 {
			inst = fmt.Sprintf("node%d", i%5)
		}
		entries[i] = &Entry{
			Name:       fmt.Sprintf("principal-%04d", i),
			Instance:   inst,
			EncKey:     []byte{byte(i), byte(i >> 8), 3, 4, 5, 6, 7, 8},
			KVNO:       uint8(i%250 + 1),
			MaxLife:    core.Lifetime(i % 256),
			Expiration: t0.Add(time.Duration(i) * time.Hour),
			ModTime:    t0.Add(time.Duration(i) * time.Minute),
			ModBy:      []string{"kadmind", "kprop", "kdb_init"}[i%3],
		}
	}
	return sortedEntriesByID(entries)
}

func entriesEqual(a, b *Entry) bool {
	return a.Name == b.Name && a.Instance == b.Instance &&
		bytes.Equal(a.EncKey, b.EncKey) && a.KVNO == b.KVNO &&
		a.MaxLife == b.MaxLife && a.Expiration.Equal(b.Expiration) &&
		a.ModTime.Equal(b.ModTime) && a.ModBy == b.ModBy
}

func TestKDB4RoundTrip(t *testing.T) {
	in := kdb4TestEntries(137)
	meta := DumpMeta{Serial: 9001, Digest: 0xfeedface}
	data, err := EncodeKDB4(in, meta)
	if err != nil {
		t.Fatal(err)
	}
	if len(data)%snapPage != 0 {
		t.Fatalf("snapshot length %d not page-aligned", len(data))
	}
	if !IsKDB4(data) {
		t.Fatal("IsKDB4 rejects its own encoding")
	}
	sn, err := ParseKDB4(data)
	if err != nil {
		t.Fatal(err)
	}
	if sn.Count() != len(in) || sn.Meta() != meta {
		t.Fatalf("parsed count %d meta %+v", sn.Count(), sn.Meta())
	}
	out, err := sn.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("materialized %d entries, want %d", len(out), len(in))
	}
	for i := range in {
		if !entriesEqual(in[i], &out[i]) {
			t.Fatalf("entry %d differs:\n in: %+v\nout: %+v", i, in[i], out[i])
		}
	}
}

func TestKDB4OpenFile(t *testing.T) {
	in := kdb4TestEntries(50)
	data, err := EncodeKDB4(in, DumpMeta{Serial: 50, Digest: 1})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), segBase4Name)
	if err := os.WriteFile(path, data, 0o600); err != nil {
		t.Fatal(err)
	}
	sn, err := OpenKDB4(path)
	if err != nil {
		t.Fatal(err)
	}
	defer sn.Close()
	if runtime.GOOS == "linux" && !sn.Mapped() {
		t.Error("snapshot not mmapped on linux")
	}
	out, err := sn.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	for i := range in {
		if !entriesEqual(in[i], &out[i]) {
			t.Fatalf("entry %d differs after file round-trip", i)
		}
	}
}

// TestKDB4CorruptionDetected flips single bytes across the snapshot
// and requires each flip to be either caught (header CRC, per-page
// data CRCs, section-layout validation) or provably harmless: a flip
// that still parses must decode to exactly the original entries —
// flips in page padding are the only ones allowed through.
func TestKDB4CorruptionDetected(t *testing.T) {
	in := kdb4TestEntries(64)
	data, err := EncodeKDB4(in, DumpMeta{Serial: 64, Digest: 2})
	if err != nil {
		t.Fatal(err)
	}
	caught := 0
	for off := 0; off < len(data); off += 611 { // co-prime with snapPage: hits varied page offsets
		mut := append([]byte(nil), data...)
		mut[off] ^= 0x40
		sn, err := ParseKDB4(mut)
		if err != nil {
			if !errors.Is(err, ErrBadSnapshot) {
				t.Errorf("flip at %d: error %v does not wrap ErrBadSnapshot", off, err)
			}
			caught++
			continue
		}
		out, err := sn.Materialize()
		if err != nil {
			caught++
			continue
		}
		if len(out) != len(in) {
			t.Fatalf("flip at %d: silently decoded %d entries, want %d", off, len(out), len(in))
		}
		for i := range in {
			if !entriesEqual(in[i], &out[i]) {
				t.Fatalf("flip at %d: silently corrupted entry %d", off, i)
			}
		}
	}
	if caught == 0 {
		t.Fatal("no corruption was ever detected — CRCs are not being checked")
	}
	// Truncations: mid-file and sub-header.
	for _, cut := range []int{len(data) - snapPage, snapPage / 2, 0} {
		if _, err := ParseKDB4(data[:cut]); !errors.Is(err, ErrBadSnapshot) {
			t.Errorf("truncation to %d bytes: %v", cut, err)
		}
	}
}

// TestKDB4IndexRejectsFullTable: a CRC-valid snapshot whose probe
// table names one record in every slot has no empty slot, so a lookup
// of a missing principal would probe forever. Index refuses it.
func TestKDB4IndexRejectsFullTable(t *testing.T) {
	data, err := EncodeKDB4(kdb4TestEntries(1), DumpMeta{})
	if err != nil {
		t.Fatal(err)
	}
	idxOff := binary.BigEndian.Uint64(data[68:76])
	idxCount := binary.BigEndian.Uint64(data[76:84])
	for i := uint64(0); i < idxCount; i++ {
		binary.LittleEndian.PutUint32(data[idxOff+4*i:], 0)
	}
	fixKDB4CRCs(data)
	sn, err := ParseKDB4(data)
	if err != nil {
		t.Fatalf("re-checksummed snapshot rejected before Index: %v", err)
	}
	if _, err := sn.Index(); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("full probe table: Index err = %v, want ErrBadSnapshot", err)
	}
}

// seedBases lays out a segment database root whose shards hold only a
// base, no segments: entries are routed by ShardIndex, and every
// shard's base stamps meta. kdb4 picks the format — a KDB4 snapshot, or
// the legacy v2 dump (base.kdb) that pre-KDB4 stores wrote and that
// SegmentStore still imports.
func seedBases(tb testing.TB, dir string, shards int, entries []*Entry, meta DumpMeta, kdb4 bool) {
	tb.Helper()
	parts := make([][]*Entry, shards)
	for _, e := range sortedEntriesByID(entries) {
		i := ShardIndex(e.Name, e.Instance, shards)
		parts[i] = append(parts[i], e)
	}
	for i, part := range parts {
		sub := filepath.Join(dir, shardDirName(i))
		if err := os.MkdirAll(sub, 0o700); err != nil {
			tb.Fatal(err)
		}
		name, data := segBaseName, EncodeEntriesAt(part, meta)
		if kdb4 {
			var err error
			if data, err = EncodeKDB4(part, meta); err != nil {
				tb.Fatal(err)
			}
			name = segBase4Name
		}
		if err := os.WriteFile(filepath.Join(sub, name), data, 0o600); err != nil {
			tb.Fatal(err)
		}
	}
}

// TestFlatKDB4Equivalence is the format-equivalence property test: the
// same seed contents imported from legacy flat bases and from KDB4
// bases, then driven through the same mutation history, must produce
// byte-identical dumps and identical serial/digest lineage, before and
// after compaction and reopen — and compaction upgrades the flat bases
// to KDB4.
func TestFlatKDB4Equivalence(t *testing.T) {
	dirs := []string{t.TempDir(), t.TempDir()}
	opt := SegmentOptions{SegmentBytes: 512, NoFsync: true}
	seed := make([]*Entry, 40)
	for i := range seed {
		seed[i] = mkEntry(i, 0)
		seed[i].Instance = "" // the history below touches these principals
	}
	for i, dir := range dirs {
		seedBases(t, dir, 2, seed, DumpMeta{Serial: 40, Digest: 0x5eed}, i == 1)
	}
	dbs := make([]*Database, 2)
	stores := make([][]*SegmentStore, 2)
	for i := range dbs {
		dbs[i], stores[i] = openSegDB(t, dirs[i], 2, opt)
		if dbs[i].Len() != len(seed) || dbs[i].Serial() != 2*40 {
			t.Fatalf("db %d seeded with %d entries at serial %d", i, dbs[i].Len(), dbs[i].Serial())
		}
	}

	// A deterministic interleaving of adds, rekeys, deletes, and
	// re-adds after delete. Both databases see the identical history;
	// per-op errors (duplicate add, rekey of a deleted principal) are
	// part of the history and must also agree.
	for op := 0; op < 200; op++ {
		name := fmt.Sprintf("u%03d", op%80)
		switch op % 5 {
		case 3:
			for _, db := range dbs {
				db.SetKey(name, "", des.StringToKey(fmt.Sprintf("re%d", op), "R"), "t", t0)
			}
		case 4:
			for _, db := range dbs {
				db.Delete(name, "")
			}
		default:
			key := des.StringToKey(fmt.Sprintf("pw%d", op), "R")
			for _, db := range dbs {
				db.Add(name, "", key, core.DefaultTGTLife, "t", t0)
			}
		}
	}

	check := func(stage string) {
		t.Helper()
		if dbs[0].Serial() != dbs[1].Serial() || dbs[0].Digest() != dbs[1].Digest() {
			t.Fatalf("%s: lineage diverged: (%d, %x) vs (%d, %x)", stage,
				dbs[0].Serial(), dbs[0].Digest(), dbs[1].Serial(), dbs[1].Digest())
		}
		for i := 0; i < 2; i++ {
			if !bytes.Equal(dbs[0].DumpShard(i), dbs[1].DumpShard(i)) {
				t.Fatalf("%s: shard %d dumps not byte-identical", stage, i)
			}
		}
	}
	check("pre-compaction")

	for i := range stores {
		for _, s := range stores[i] {
			if err := s.Compact(); err != nil {
				t.Fatal(err)
			}
		}
	}
	check("post-compaction")

	// Compaction upgraded the imported flat bases: every shard of both
	// stores now holds a KDB4 base and no flat one.
	for _, dir := range dirs {
		for i := 0; i < 2; i++ {
			sub := filepath.Join(dir, shardDirName(i))
			if _, err := os.Stat(filepath.Join(sub, segBase4Name)); err != nil {
				t.Fatalf("%s has no KDB4 base after compaction: %v", sub, err)
			}
			if _, err := os.Stat(filepath.Join(sub, segBaseName)); !os.IsNotExist(err) {
				t.Fatalf("%s kept its flat base after compaction: %v", sub, err)
			}
		}
	}

	for i := range stores {
		for _, s := range stores[i] {
			s.Close()
		}
		dbs[i], stores[i] = openSegDB(t, dirs[i], 2, opt)
	}
	check("post-reopen")
}

// TestKDB4TornSwapRecovery covers the two crash shapes of the base
// swap: a leftover .tmp from a crash before rename is ignored on
// reopen, and a torn page inside an installed base refuses to load
// rather than serving silently corrupt principals.
func TestKDB4TornSwapRecovery(t *testing.T) {
	dir := t.TempDir()
	db, segs := openSegDB(t, dir, 1, SegmentOptions{SegmentBytes: 512, NoFsync: true})
	addN(t, db, 40)
	if err := segs[0].Compact(); err != nil {
		t.Fatal(err)
	}
	serial, digest := db.Serial(), db.Digest()
	segs[0].Close()
	sub := filepath.Join(dir, shardDirName(0))

	// Crash before rename: a garbage tmp next to a good base.
	tmp := filepath.Join(sub, segBase4Name+".tmp")
	if err := os.WriteFile(tmp, []byte("torn write from a dead compactor"), 0o600); err != nil {
		t.Fatal(err)
	}
	db2, segs2 := openSegDB(t, dir, 1, SegmentOptions{NoFsync: true})
	if db2.Len() != 40 || db2.Serial() != serial || db2.Digest() != digest {
		t.Fatalf("reopen with stale tmp: len %d lineage (%d, %x)", db2.Len(), db2.Serial(), db2.Digest())
	}
	segs2[0].Close()
	os.Remove(tmp)

	// Torn page inside the installed base: must refuse, not mis-serve.
	base := filepath.Join(sub, segBase4Name)
	data, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	mut := append([]byte(nil), data...)
	mut[len(mut)/2] ^= 0xff
	if err := os.WriteFile(base, mut, 0o600); err != nil {
		t.Fatal(err)
	}
	if _, _, err := OpenSegmentDB(des.StringToKey("master-password", "ATHENA.MIT.EDU"), dir, 1, SegmentOptions{NoFsync: true}); err == nil {
		t.Fatal("torn base page loaded silently")
	} else if !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("torn base error %v does not wrap ErrBadSnapshot", err)
	}

	// Restore the good bytes: the store loads again.
	if err := os.WriteFile(base, data, 0o600); err != nil {
		t.Fatal(err)
	}
	db3, _ := openSegDB(t, dir, 1, SegmentOptions{NoFsync: true})
	if db3.Len() != 40 || db3.Serial() != serial {
		t.Fatalf("restored base: len %d serial %d", db3.Len(), db3.Serial())
	}
}

// TestSegmentDBKillDuringCompaction is the SIGKILL-at-swap regression
// test for satellite durability work: the child runs with compaction
// after every seal and tiny segments, so the kill lands inside or next
// to a base swap with high probability. Fsync stays ON in the child —
// the swap ordering (tmp fsync, rename, dir fsync, stale unlink, dir
// fsync) is what is under test.
func TestSegmentDBKillDuringCompaction(t *testing.T) {
	if os.Getenv("KDB_SWAPKILL_CHILD") == "1" {
		dir := os.Getenv("KDB_SWAPKILL_DIR")
		db, _, err := OpenSegmentDB(des.StringToKey("m", "R"), dir, 2, SegmentOptions{SegmentBytes: 2048, CompactAfter: 1})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		for i := 0; ; i++ {
			key := des.StringToKey(fmt.Sprintf("pw%d", i), "R")
			if err := db.Add(fmt.Sprintf("churn%06d", i), "", key, core.DefaultTGTLife, "child", t0); err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(1)
			}
		}
	}
	if testing.Short() {
		t.Skip("subprocess crash test")
	}

	for round := 0; round < 3; round++ {
		dir := t.TempDir()
		cmd := exec.Command(os.Args[0], "-test.run", "TestSegmentDBKillDuringCompaction")
		cmd.Env = append(os.Environ(), "KDB_SWAPKILL_CHILD=1", "KDB_SWAPKILL_DIR="+dir)
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(150 * time.Millisecond)
		cmd.Process.Signal(syscall.SIGKILL)
		cmd.Wait()

		db, segs, err := OpenSegmentDB(des.StringToKey("m", "R"), dir, 2, SegmentOptions{NoFsync: true})
		if err != nil {
			t.Fatalf("round %d: reopen after SIGKILL mid-compaction: %v", round, err)
		}
		if uint64(db.Len()) != db.Serial() {
			t.Fatalf("round %d: %d principals but serial %d", round, db.Len(), db.Serial())
		}
		var badKey error
		db.Range(func(e *Entry) bool {
			if _, err := db.Key(e); err != nil {
				badKey = fmt.Errorf("%s: %w", e.ID(), err)
				return false
			}
			return true
		})
		if badKey != nil {
			t.Fatalf("round %d: recovered entry undecryptable: %v", round, badKey)
		}
		for _, s := range segs {
			s.Close()
		}
	}
}
