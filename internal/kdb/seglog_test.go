package kdb

import (
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"kerberos/internal/core"
	"kerberos/internal/des"
)

func openSegDB(t testing.TB, dir string, shards int, opt SegmentOptions) (*Database, []*SegmentStore) {
	t.Helper()
	db, segs, err := OpenSegmentDB(des.StringToKey("master-password", "ATHENA.MIT.EDU"), dir, shards, opt)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		for _, s := range segs {
			s.Close()
		}
	})
	return db, segs
}

func TestSegmentStoreReopenRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db, segs := openSegDB(t, dir, 1, SegmentOptions{})
	addN(t, db, 10)
	key2 := des.StringToKey("newpw", "R")
	if err := db.SetKey("user003", "", key2, "t", t0); err != nil {
		t.Fatal(err)
	}
	if err := db.Delete("user007", ""); err != nil {
		t.Fatal(err)
	}
	serial, digest := db.Serial(), db.Digest()
	segs[0].Close()

	db2, _ := openSegDB(t, dir, 1, SegmentOptions{})
	if db2.Len() != 9 {
		t.Fatalf("reopened len = %d, want 9", db2.Len())
	}
	if db2.Serial() != serial || db2.Digest() != digest {
		t.Fatalf("reopened lineage (%d, %x), want (%d, %x)", db2.Serial(), db2.Digest(), serial, digest)
	}
	e, err := db2.Get("user003", "")
	if err != nil {
		t.Fatal(err)
	}
	if e.KVNO != 2 {
		t.Fatalf("KVNO after reopen = %d", e.KVNO)
	}
	if k, err := db2.Key(e); err != nil || k != key2 {
		t.Fatalf("key after reopen: %v", err)
	}
	if _, err := db2.Get("user007", ""); err == nil {
		t.Fatal("deleted entry survived reopen")
	}
}

// TestFileStoreWriteThrough proves every mutation is on disk when it
// returns: a follower opened beside the live writer, as another process
// would open it, sees each add, key change and delete with no explicit
// save having happened.
func TestFileStoreWriteThrough(t *testing.T) {
	dir := t.TempDir()
	db, _ := openSegDB(t, dir, 1, SegmentOptions{})
	key, _ := des.NewRandomKey()
	if err := db.Add("jis", "", key, 0, "t", t0); err != nil {
		t.Fatal(err)
	}

	fdb, f := openFollower(t, dir)
	e, err := fdb.Get("jis", "")
	if err != nil {
		t.Fatal(err)
	}
	if k, err := fdb.Key(e); err != nil || k != key {
		t.Errorf("key round trip: %v", err)
	}

	k2, _ := des.NewRandomKey()
	if err := db.SetKey("jis", "", k2, "t", t0.Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	poll(t, f)
	if e, err := fdb.Get("jis", ""); err != nil || e.KVNO != 2 {
		t.Errorf("kvno seen beside the writer = %v (%v)", e, err)
	}

	if err := db.Delete("jis", ""); err != nil {
		t.Fatal(err)
	}
	poll(t, f)
	if fdb.Len() != 0 {
		t.Error("delete not persisted")
	}
}

// TestFileStoreFreshAndCorrupt: an empty directory opens as an empty
// database, and a base that is not a database refuses to open rather
// than coming up empty.
func TestFileStoreFreshAndCorrupt(t *testing.T) {
	master := des.StringToKey("m", "R")
	db, segs, err := OpenSegmentDB(master, filepath.Join(t.TempDir(), "new"), 1, SegmentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	segs[0].Close()
	if db.Len() != 0 || db.Serial() != 0 {
		t.Errorf("fresh database holds %d entries at serial %d", db.Len(), db.Serial())
	}

	for _, base := range []string{segBase4Name, segBaseName} {
		dir := t.TempDir()
		sub := filepath.Join(dir, shardDirName(0))
		if err := os.MkdirAll(sub, 0o700); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(sub, base), []byte("not a database"), 0o600); err != nil {
			t.Fatal(err)
		}
		if _, segs, err := OpenSegmentDB(master, dir, 1, SegmentOptions{}); err == nil {
			segs[0].Close()
			t.Errorf("corrupt %s opened", base)
		}
	}
}

// TestFileStoreReplaceAll: a propagated dump installed into a fresh
// store is what a reopen finds.
func TestFileStoreReplaceAll(t *testing.T) {
	dir := t.TempDir()
	db, segs := openSegDB(t, dir, 1, SegmentOptions{})

	src := newTestDB(t)
	key, _ := des.NewRandomKey()
	for _, n := range []string{"a", "b", "c"} {
		if err := src.Add(n, "", key, 0, "t", t0); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.LoadDumpShard(0, src.DumpShard(0)); err != nil {
		t.Fatal(err)
	}
	segs[0].Close()
	reopened, _ := openSegDB(t, dir, 1, SegmentOptions{})
	if reopened.Len() != 3 {
		t.Errorf("persisted %d entries after ReplaceAll", reopened.Len())
	}
	if _, err := reopened.Get("b", ""); err != nil {
		t.Error(err)
	}
}

// TestFileStorePersistsSerialAcrossReopen: a reopened store resumes the
// lineage it was closed at, and its next write extends that lineage.
func TestFileStorePersistsSerialAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	db, segs := openSegDB(t, dir, 1, SegmentOptions{})
	addN(t, db, 4)
	wantSerial, wantDigest := db.Serial(), db.Digest()
	segs[0].Close()

	db2, _ := openSegDB(t, dir, 1, SegmentOptions{})
	if db2.Serial() != wantSerial || db2.Digest() != wantDigest {
		t.Fatalf("reopened at (%d, %x), want (%d, %x)",
			db2.Serial(), db2.Digest(), wantSerial, wantDigest)
	}
	if err := db2.Delete("user000", ""); err != nil {
		t.Fatal(err)
	}
	if db2.Serial() != wantSerial+1 {
		t.Fatalf("serial after resume-write = %d", db2.Serial())
	}
}

// TestSegmentStoreAppendsNotRewrites is the acceptance criterion in
// file-size form: N mutations grow the active segment by O(change) each
// and never rewrite a base file.
func TestSegmentStoreAppendsNotRewrites(t *testing.T) {
	dir := t.TempDir()
	db, _ := openSegDB(t, dir, 1, SegmentOptions{SegmentBytes: 1 << 30, NoFsync: true})
	addN(t, db, 1)
	seg := filepath.Join(dir, shardDirName(0), segName(1))
	fi, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	size1 := fi.Size()
	addN2 := func(from, to int) {
		for i := from; i < to; i++ {
			key := des.StringToKey(fmt.Sprintf("pw%d", i), "R")
			if err := db.Add(fmt.Sprintf("user%03d", i), "", key, core.DefaultTGTLife, "test", t0); err != nil {
				t.Fatal(err)
			}
		}
	}
	addN2(1, 101)
	fi, _ = os.Stat(seg)
	perChange := float64(fi.Size()-size1) / 100
	if perChange > 256 {
		t.Fatalf("%.0f bytes appended per mutation — that is a rewrite, not an append", perChange)
	}
	for _, base := range []string{segBaseName, segBase4Name} {
		if _, err := os.Stat(filepath.Join(dir, shardDirName(0), base)); !os.IsNotExist(err) {
			t.Fatalf("base %s written on the mutation path", base)
		}
	}
}

func TestSegmentStoreSealAndCompact(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments so a few dozen mutations seal several.
	db, segs := openSegDB(t, dir, 1, SegmentOptions{SegmentBytes: 512, CompactAfter: 2, NoFsync: true})
	addN(t, db, 60)
	if err := db.Delete("user010", ""); err != nil {
		t.Fatal(err)
	}
	if err := segs[0].Compact(); err != nil {
		t.Fatal(err)
	}
	if err := segs[0].CompactErr(); err != nil {
		t.Fatal(err)
	}
	sub := filepath.Join(dir, shardDirName(0))
	if _, err := os.Stat(filepath.Join(sub, segBase4Name)); err != nil {
		t.Fatalf("no KDB4 base after compaction: %v", err)
	}
	ents, _ := os.ReadDir(sub)
	segFiles := 0
	for _, de := range ents {
		if strings.HasPrefix(de.Name(), segPrefix) {
			segFiles++
		}
	}
	if segFiles > 2 {
		t.Fatalf("%d segment files survive compaction", segFiles)
	}
	serial, digest := db.Serial(), db.Digest()
	segs[0].Close()

	// Replay = base + tail segments; contents and lineage identical.
	db2, _ := openSegDB(t, dir, 1, SegmentOptions{})
	if db2.Len() != 59 || db2.Serial() != serial || db2.Digest() != digest {
		t.Fatalf("after compaction+reopen: len %d serial %d digest %x, want 59 %d %x",
			db2.Len(), db2.Serial(), db2.Digest(), serial, digest)
	}
}

// TestSegmentStoreTornTailSweep truncates the active segment at every
// possible byte offset of its final record and proves each reopen
// recovers exactly the last complete mutation.
func TestSegmentStoreTornTailSweep(t *testing.T) {
	dir := t.TempDir()
	db, segs := openSegDB(t, dir, 1, SegmentOptions{NoFsync: true})
	addN(t, db, 5)
	segs[0].Close()
	seg := filepath.Join(dir, shardDirName(0), segName(1))
	whole, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Find the offset where the last record begins.
	off, last := 0, 0
	for off < len(whole) {
		_, n, ok := readLogRecord(whole[off:])
		if !ok {
			t.Fatalf("undamaged segment unreadable at %d", off)
		}
		last = off
		off += n
	}
	for cut := last + 1; cut < len(whole); cut++ {
		work := t.TempDir()
		sub := filepath.Join(work, shardDirName(0))
		if err := os.MkdirAll(sub, 0o700); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(sub, segName(1)), whole[:cut], 0o600); err != nil {
			t.Fatal(err)
		}
		db2, segs2 := openSegDB(t, work, 1, SegmentOptions{NoFsync: true})
		if db2.Len() != 4 {
			t.Fatalf("cut=%d: recovered %d entries, want 4 (last complete mutation)", cut, db2.Len())
		}
		if db2.Serial() != 4 {
			t.Fatalf("cut=%d: serial %d, want 4", cut, db2.Serial())
		}
		// The torn record is gone from disk: appending works and a further
		// reopen sees the new change.
		if err := db2.Add("fresh", "", des.StringToKey("x", "R"), core.DefaultTGTLife, "t", t0); err != nil {
			t.Fatalf("cut=%d: append after truncation: %v", cut, err)
		}
		segs2[0].Close()
		db3, _ := openSegDB(t, work, 1, SegmentOptions{NoFsync: true})
		if db3.Len() != 5 || db3.Serial() != 5 {
			t.Fatalf("cut=%d: after truncate+append reopen: len %d serial %d", cut, db3.Len(), db3.Serial())
		}
	}
}

// TestSegmentStoreCorruptionRefusesLoad proves damage anywhere but the
// tail is corruption, not a crash artifact, and refuses to load.
func TestSegmentStoreCorruptionRefusesLoad(t *testing.T) {
	dir := t.TempDir()
	// CompactAfter high enough that the sealed segments stay on disk.
	db, segs := openSegDB(t, dir, 1, SegmentOptions{SegmentBytes: 256, CompactAfter: 1000, NoFsync: true})
	addN(t, db, 30) // several sealed segments
	segs[0].Close()
	sub := filepath.Join(dir, shardDirName(0))
	// Flip a byte in the FIRST segment (not the last).
	seg1 := filepath.Join(sub, segName(1))
	data, err := os.ReadFile(seg1)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(seg1, data, 0o600); err != nil {
		t.Fatal(err)
	}
	_, _, err = OpenSegmentDB(des.StringToKey("m", "R"), dir, 1, SegmentOptions{})
	if err == nil {
		t.Fatal("mid-history corruption loaded silently")
	}
}

// TestSegmentDBKillRecovers is the kill-the-process crash test: a child
// process mutates a segment database as fast as it can until SIGKILL,
// and the parent then reopens the directory and checks the recovered
// state is a consistent prefix: serial S means users 1..S' applied with
// no holes (S' = serial minus any torn tail), lineage intact.
func TestSegmentDBKillRecovers(t *testing.T) {
	if os.Getenv("KDB_SEGKILL_CHILD") == "1" {
		dir := os.Getenv("KDB_SEGKILL_DIR")
		db, _, err := OpenSegmentDB(des.StringToKey("m", "R"), dir, 2, SegmentOptions{SegmentBytes: 4096, NoFsync: true})
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

	dir := t.TempDir()
	for round := 0; round < 3; round++ {
		cmd := exec.Command(os.Args[0], "-test.run", "TestSegmentDBKillRecovers")
		cmd.Env = append(os.Environ(), "KDB_SEGKILL_CHILD=1", "KDB_SEGKILL_DIR="+dir)
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(60 * time.Millisecond)
		cmd.Process.Signal(syscall.SIGKILL)
		cmd.Wait()

		db, segs, err := OpenSegmentDB(des.StringToKey("m", "R"), dir, 2, SegmentOptions{NoFsync: true})
		if err != nil {
			t.Fatalf("round %d: reopen after SIGKILL: %v", round, err)
		}
		// Every shard recovered a contiguous prefix: the total applied
		// mutations equal the number of present principals, and each
		// present principal decrypts under the master key.
		total := db.Serial()
		if uint64(db.Len()) != total {
			t.Fatalf("round %d: %d principals but serial %d", round, db.Len(), total)
		}
		seen := 0
		var badKey error
		db.Range(func(e *Entry) bool {
			seen++
			if _, err := db.Key(e); err != nil {
				badKey = fmt.Errorf("%s: %w", e.ID(), err)
				return false
			}
			return true
		})
		if badKey != nil {
			t.Fatalf("round %d: recovered entry undecryptable: %v", round, badKey)
		}
		if seen == 0 && round > 0 {
			t.Fatalf("round %d: child made no progress", round)
		}
		for _, s := range segs {
			s.Close()
		}
		// Next round continues over the recovered directory — reopening
		// a crashed database and crashing it again must also hold.
		os.RemoveAll(dir)
		dir = t.TempDir()
	}
}

// TestSegmentDBShardedReopen exercises the sharded open/reopen plane:
// shard count autodetection, mismatch rejection, and per-shard lineage.
func TestSegmentDBShardedReopen(t *testing.T) {
	dir := t.TempDir()
	db, segs := openSegDB(t, dir, 4, SegmentOptions{NoFsync: true})
	addN(t, db, 40)
	for _, s := range segs {
		s.Close()
	}
	if n, err := DetectShards(dir); err != nil || n != 4 {
		t.Fatalf("DetectShards = (%d, %v), want 4", n, err)
	}
	if _, _, err := OpenSegmentDB(des.StringToKey("m", "R"), dir, 8, SegmentOptions{}); err == nil {
		t.Fatal("shard-count mismatch accepted")
	}
	db2, _ := openSegDB(t, dir, 4, SegmentOptions{})
	if db2.Len() != 40 || db2.Serial() != 40 {
		t.Fatalf("sharded reopen: len %d serial %d", db2.Len(), db2.Serial())
	}
	if db2.Digest() != db.Digest() {
		t.Fatal("sharded reopen digest mismatch")
	}
}

// TestSegmentStoreReplaceAllStartsFresh proves bulk replacement (the
// propagation install path) collapses the directory to one base dump.
func TestSegmentStoreReplaceAllStartsFresh(t *testing.T) {
	dir := t.TempDir()
	db, segs := openSegDB(t, dir, 1, SegmentOptions{SegmentBytes: 256, NoFsync: true})
	addN(t, db, 20)

	src := newTestDB(t)
	addN(t, src, 7)
	if err := db.LoadDumpShard(0, src.DumpShard(0)); err != nil {
		t.Fatal(err)
	}
	if db.Len() != 7 || db.Serial() != src.Serial() || db.Digest() != src.Digest() {
		t.Fatalf("after LoadDump: len %d lineage (%d, %x)", db.Len(), db.Serial(), db.Digest())
	}
	segs[0].Close()
	db2, _ := openSegDB(t, dir, 1, SegmentOptions{})
	if db2.Len() != 7 || db2.Serial() != src.Serial() || db2.Digest() != src.Digest() {
		t.Fatalf("after LoadDump+reopen: len %d lineage (%d, %x)", db2.Len(), db2.Serial(), db2.Digest())
	}
}

// TestSegmentStoreReplaceAllCrashWindow: a ReplaceAll that dies after
// installing its base but before removing the old segments leaves
// records of the replaced lineage beside the new base, some at serials
// above it. A reopen — writer or follower — must load the new base
// alone, not replay the old records on top of it.
func TestSegmentStoreReplaceAllCrashWindow(t *testing.T) {
	dir := t.TempDir()
	db, segs := openSegDB(t, dir, 1, SegmentOptions{NoFsync: true})
	addN(t, db, 20)
	segs[0].Close()

	src := newTestDB(t)
	addN2 := func(db *Database, from, to int) {
		for i := from; i < to; i++ {
			key := des.StringToKey(fmt.Sprintf("other%d", i), "R")
			if err := db.Add(fmt.Sprintf("other%03d", i), "", key, core.DefaultTGTLife, "test", t0); err != nil {
				t.Fatal(err)
			}
		}
	}
	addN2(src, 0, 5)
	entries, meta, err := ParseDumpFull(src.DumpShard(0))
	if err != nil {
		t.Fatal(err)
	}
	base, err := EncodeKDB4(entries, meta)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteFileAtomic(filepath.Join(dir, shardDirName(0), segBase4Name), base, 0o600); err != nil {
		t.Fatal(err)
	}

	fdb, _ := openFollower(t, dir)
	wdb, _ := openSegDB(t, dir, 1, SegmentOptions{NoFsync: true})
	for name, got := range map[string]*Database{"writer": wdb, "follower": fdb} {
		if got.Len() != 5 || got.Serial() != meta.Serial || got.Digest() != meta.Digest {
			t.Fatalf("%s after the crash window: len %d lineage (%d, %x), want 5 (%d, %x)",
				name, got.Len(), got.Serial(), got.Digest(), meta.Serial, meta.Digest)
		}
		if _, err := got.Get("user019", ""); err == nil {
			t.Fatalf("%s serves a principal of the replaced lineage", name)
		}
	}
}

// errDirSync is the failure the dirSync seam injects.
var errDirSync = errors.New("injected directory fsync failure")

// failOnceExists is a dirSync seam that fails while path exists: the
// directory fsync that would make path's creation durable fails, and
// every other one succeeds.
func failOnceExists(path string) func() error {
	return func() error {
		if _, err := os.Stat(path); err == nil {
			return errDirSync
		}
		return nil
	}
}

// TestSegmentStoreOpenDirSyncError: when the fsync that makes the new
// active segment durable fails, open returns the error instead of
// serving from a segment a power cut could lose, and a later open of
// the same directory succeeds.
func TestSegmentStoreOpenDirSyncError(t *testing.T) {
	dir := t.TempDir()
	s := newSegmentStore(dir, SegmentOptions{})
	s.dirSync = failOnceExists(filepath.Join(dir, segName(1)))
	if err := s.open(); !errors.Is(err, errDirSync) {
		t.Fatalf("open with failing directory fsync: err = %v, want %v", err, errDirSync)
	}
	if s.active != nil {
		t.Error("failed open kept the active segment")
	}
	s2, err := OpenSegmentStore(dir, SegmentOptions{})
	if err != nil {
		t.Fatalf("reopen after the failure: %v", err)
	}
	s2.Close()
}

// TestSegmentStoreRollDirSyncError: when the fsync that makes a new
// segment durable fails, the roll is abandoned — the new file removed —
// and records keep landing in the current segment; the next roll after
// the fsync recovers succeeds, and nothing is lost across a reopen.
func TestSegmentStoreRollDirSyncError(t *testing.T) {
	dir := t.TempDir()
	opt := SegmentOptions{SegmentBytes: 512, CompactAfter: 100, NoFsync: true}
	db, segs := openSegDB(t, dir, 1, opt)
	s := segs[0]
	next := filepath.Join(s.dir, segName(2))
	s.dirSync = failOnceExists(next)
	addN(t, db, 30)
	if s.activeSeq != 1 || len(s.sealed) != 0 {
		t.Fatalf("rolled to segment %d (sealed %v) with a failing directory fsync", s.activeSeq, s.sealed)
	}
	if s.activeSize < opt.SegmentBytes {
		t.Fatalf("active segment holds %d bytes; the test never reached a roll", s.activeSize)
	}
	if _, err := os.Stat(next); !os.IsNotExist(err) {
		t.Fatalf("abandoned segment left behind: %v", err)
	}

	s.dirSync = nil
	key := des.StringToKey("pw", "R")
	if err := db.Add("late", "", key, core.DefaultTGTLife, "test", t0); err != nil {
		t.Fatal(err)
	}
	if s.activeSeq != 2 {
		t.Fatalf("active segment %d after the fsync recovered, want 2", s.activeSeq)
	}
	serial, digest := db.Serial(), db.Digest()
	s.Close()
	db2, _ := openSegDB(t, dir, 1, SegmentOptions{})
	if db2.Len() != 31 || db2.Serial() != serial || db2.Digest() != digest {
		t.Fatalf("after reopen: len %d lineage (%d, %x), want 31 (%d, %x)",
			db2.Len(), db2.Serial(), db2.Digest(), serial, digest)
	}
}

// TestSegmentStoreReplaceAllDirSyncError: when the fsync of
// ReplaceAll's fresh segment fails, the install fails with the wrapped
// error. Through LoadDumpShard, the shard keeps serving its previous
// contents, lineage and journal, the abandoned segment is removed, and
// mutations go on landing in the current segment.
func TestSegmentStoreReplaceAllDirSyncError(t *testing.T) {
	dir := t.TempDir()
	db, segs := openSegDB(t, dir, 1, SegmentOptions{NoFsync: true})
	addN(t, db, 5)
	s := segs[0]
	next := filepath.Join(s.dir, segName(s.activeSeq+1))
	s.dirSync = failOnceExists(next)
	serial, digest, journal := db.Serial(), db.Digest(), db.JournalLen()

	src := newTestDB(t)
	addN(t, src, 9)
	if err := db.LoadDumpShard(0, src.DumpShard(0)); !errors.Is(err, errDirSync) {
		t.Fatalf("install with failing directory fsync: err = %v, want %v", err, errDirSync)
	}
	if db.Len() != 5 || db.Serial() != serial || db.Digest() != digest || db.JournalLen() != journal {
		t.Fatalf("failed install changed the shard: len %d lineage (%d, %x) journal %d",
			db.Len(), db.Serial(), db.Digest(), db.JournalLen())
	}
	if _, err := os.Stat(next); !os.IsNotExist(err) {
		t.Fatalf("abandoned segment left behind: %v", err)
	}
	s.dirSync = nil
	if err := db.Add("after", "", des.StringToKey("x", "R"), core.DefaultTGTLife, "t", t0); err != nil {
		t.Fatal(err)
	}
	if ch, v := db.ChangesSinceShard(0, serial, digest); v != DeltaOK || len(ch) != 1 {
		t.Fatalf("journal after the failed install: %d changes, %v", len(ch), v)
	}
}

// TestSegmentStoreOneWriter: a directory a store holds open refuses a
// second writer, with ErrLocked, until the first closes it.
func TestSegmentStoreOneWriter(t *testing.T) {
	if !dirLocking {
		t.Skip("no directory lock on this platform")
	}
	dir := t.TempDir()
	_, segs := openSegDB(t, dir, 2, SegmentOptions{NoFsync: true})
	if _, _, err := OpenSegmentDB(des.StringToKey("m", "R"), dir, 0, SegmentOptions{}); !errors.Is(err, ErrLocked) {
		t.Fatalf("second writer: err = %v, want ErrLocked", err)
	}
	for _, s := range segs {
		s.Close()
	}
	db, segs2, err := OpenSegmentDB(des.StringToKey("m", "R"), dir, 0, SegmentOptions{})
	if err != nil {
		t.Fatalf("writer after the first closed: %v", err)
	}
	if db.Shards() != 2 {
		t.Fatalf("autodetected %d shards, want 2", db.Shards())
	}
	for _, s := range segs2 {
		s.Close()
	}
}
