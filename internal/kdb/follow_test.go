package kdb

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kerberos/internal/core"
	"kerberos/internal/des"
)

var followMaster = des.StringToKey("master-password", "ATHENA.MIT.EDU")

// openFollower opens a follower over dir, closed at cleanup.
func openFollower(t testing.TB, dir string) (*Database, *Follower) {
	t.Helper()
	db, f, err := OpenFollower(followMaster, dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return db, f
}

// poll runs one follower poll that must succeed.
func poll(t testing.TB, f *Follower) {
	t.Helper()
	if err := f.Poll(); err != nil {
		t.Fatal(err)
	}
}

// sameAs fails unless the follower holds exactly the writer's
// contents and per-shard lineage.
func sameAs(t testing.TB, stage string, follower, writer *Database) {
	t.Helper()
	if follower.Shards() != writer.Shards() {
		t.Fatalf("%s: %d shards, writer %d", stage, follower.Shards(), writer.Shards())
	}
	for i := 0; i < writer.Shards(); i++ {
		if follower.ShardSerial(i) != writer.ShardSerial(i) || follower.ShardDigest(i) != writer.ShardDigest(i) {
			t.Fatalf("%s: shard %d at (%d, %x), writer at (%d, %x)", stage, i,
				follower.ShardSerial(i), follower.ShardDigest(i), writer.ShardSerial(i), writer.ShardDigest(i))
		}
	}
	if !bytes.Equal(contents(follower), contents(writer)) {
		t.Fatalf("%s: contents differ (%d vs %d principals)", stage, follower.Len(), writer.Len())
	}
}

// addRange adds users from..to-1 through db.
func addRange(t testing.TB, db *Database, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		key := des.StringToKey(fmt.Sprintf("pw%d", i), "R")
		if err := db.Add(fmt.Sprintf("user%04d", i), "", key, core.DefaultTGTLife, "test", t0); err != nil {
			t.Fatal(err)
		}
	}
}

// dirImage reads every file under dir: path -> bytes.
func dirImage(t testing.TB, dir string) map[string]string {
	t.Helper()
	out := map[string]string{}
	err := filepath.Walk(dir, func(path string, fi os.FileInfo, err error) error {
		if err != nil || fi.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		out[path] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestFollowerAppends: a follower sees a live writer's appends, with
// the shard journal filled as on the writer, so a kprop slave behind it
// can take a delta from the follower's database.
func TestFollowerAppends(t *testing.T) {
	dir := t.TempDir()
	w, _ := openSegDB(t, dir, 2, SegmentOptions{NoFsync: true})
	addRange(t, w, 0, 10)
	fdb, f := openFollower(t, dir)
	sameAs(t, "open", fdb, w)
	if !fdb.ReadOnly() {
		t.Fatal("follower database is writable")
	}
	at := []DumpMeta{{fdb.ShardSerial(0), fdb.ShardDigest(0)}, {fdb.ShardSerial(1), fdb.ShardDigest(1)}}

	addRange(t, w, 10, 25)
	if err := w.SetKey("user0003", "", des.StringToKey("new", "R"), "t", t0); err != nil {
		t.Fatal(err)
	}
	if err := w.Delete("user0004", ""); err != nil {
		t.Fatal(err)
	}
	poll(t, f)
	sameAs(t, "after appends", fdb, w)
	if e, err := fdb.Get("user0003", ""); err != nil || e.KVNO != 2 {
		t.Fatalf("rekeyed principal on the follower: %+v, %v", e, err)
	}
	for i := 0; i < 2; i++ {
		got, v := fdb.ChangesSinceShard(i, at[i].Serial, at[i].Digest)
		want, _ := w.ChangesSinceShard(i, at[i].Serial, at[i].Digest)
		if v != DeltaOK || !bytes.Equal(EncodeChanges(got), EncodeChanges(want)) {
			t.Fatalf("shard %d: follower journal gives %d changes (%v), writer %d", i, len(got), v, len(want))
		}
	}
	// A poll with nothing new changes nothing.
	serial := fdb.Serial()
	poll(t, f)
	if fdb.Serial() != serial {
		t.Fatalf("idle poll moved the serial %d -> %d", serial, fdb.Serial())
	}
	// Re-reading the shards from disk when nothing was missed keeps
	// contents, lineage and journal.
	for i, fs := range f.shards {
		if err := fs.resync(fdb.shards[i]); err != nil {
			t.Fatal(err)
		}
		if _, v := fdb.ChangesSinceShard(i, at[i].Serial, at[i].Digest); v != DeltaOK {
			t.Fatalf("shard %d: resync of an up-to-date follower dropped the journal: %v", i, v)
		}
	}
	sameAs(t, "after resync", fdb, w)
}

// TestFollowerSealAndCompaction: the writer seals segments and its
// background compactor folds them into new bases while the follower
// polls; the follower tracks every step without losing its journal,
// because a fold leaves the newest sealed segment for it to read.
func TestFollowerSealAndCompaction(t *testing.T) {
	dir := t.TempDir()
	w, segs := openSegDB(t, dir, 1, SegmentOptions{SegmentBytes: 512, CompactAfter: 2, NoFsync: true})
	addRange(t, w, 0, 5)
	fdb, f := openFollower(t, dir)
	start := DumpMeta{fdb.Serial(), fdb.Digest()}
	for i := 5; i < 200; i++ {
		addRange(t, w, i, i+1)
		poll(t, f)
		sameAs(t, fmt.Sprintf("user %d", i), fdb, w)
	}
	if segs[0].Compactions() == 0 {
		if err := segs[0].Compact(); err != nil {
			t.Fatal(err)
		}
		poll(t, f)
	}
	if segs[0].Compactions() == 0 {
		t.Fatal("no compaction happened")
	}
	if err := segs[0].CompactErr(); err != nil {
		t.Fatal(err)
	}
	sameAs(t, "after compaction", fdb, w)
	if _, v := fdb.ChangesSinceShard(0, start.Serial, start.Digest); v != DeltaOK {
		t.Fatalf("follower journal lost its history across compactions: %v", v)
	}
}

// TestFollowerMissedFold: a follower that did not poll while the
// writer sealed and folded several segments finds the records gone,
// re-reads the shard, and keeps its journal because the disk still
// holds its lineage point.
func TestFollowerMissedFold(t *testing.T) {
	dir := t.TempDir()
	w, segs := openSegDB(t, dir, 1, SegmentOptions{SegmentBytes: 512, CompactAfter: 1000, NoFsync: true})
	addRange(t, w, 0, 5)
	fdb, f := openFollower(t, dir)
	start := DumpMeta{fdb.Serial(), fdb.Digest()}
	addRange(t, w, 5, 60)
	if err := segs[0].Compact(); err != nil {
		t.Fatal(err)
	}
	addRange(t, w, 60, 62)
	poll(t, f)
	sameAs(t, "after a missed fold", fdb, w)
	if _, v := fdb.ChangesSinceShard(0, start.Serial, start.Digest); v != FallbackRetention {
		// The folded records never reached the follower's journal, so
		// it cannot serve a delta from before them.
		t.Fatalf("verdict from before the fold = %v, want %v", v, FallbackRetention)
	}
}

// TestFollowerReplaceAll: a ReplaceAll (a kprop full install) starts a
// new lineage under a live follower — with and without records after
// it, and to a lineage point behind the follower's — and the follower
// adopts it.
func TestFollowerReplaceAll(t *testing.T) {
	dir := t.TempDir()
	w, _ := openSegDB(t, dir, 1, SegmentOptions{NoFsync: true})
	addRange(t, w, 0, 30)
	fdb, f := openFollower(t, dir)

	other := newTestDB(t)
	addRange(t, other, 100, 107)
	if err := w.LoadDumpShard(0, other.DumpShard(0)); err != nil {
		t.Fatal(err)
	}
	poll(t, f)
	sameAs(t, "new lineage, no records after it", fdb, w)
	if _, err := fdb.Get("user0000", ""); !errors.Is(err, ErrNotFound) {
		t.Fatalf("principal of the replaced lineage still served: %v", err)
	}

	addRange(t, other, 107, 110)
	if err := w.LoadDumpShard(0, other.DumpShard(0)); err != nil {
		t.Fatal(err)
	}
	addRange(t, w, 200, 203)
	poll(t, f)
	sameAs(t, "new lineage with records after it", fdb, w)
	// The resync journals the records past the new base.
	if recs, v := fdb.ChangesSinceShard(0, other.Serial(), other.Digest()); v != DeltaOK || len(recs) != 3 {
		t.Fatalf("from the new base: %d changes (%v), want 3", len(recs), v)
	}

	// Back to a point of the follower's own history: the lineage the
	// writer now holds is an ancestor of the follower's.
	behind := newTestDB(t)
	addRange(t, behind, 100, 107)
	if err := w.LoadDumpShard(0, behind.DumpShard(0)); err != nil {
		t.Fatal(err)
	}
	poll(t, f)
	sameAs(t, "ancestor lineage", fdb, w)
}

// TestFollowerHalfWrittenTail: a record the writer is still writing is
// not applied, and is once it is whole.
func TestFollowerHalfWrittenTail(t *testing.T) {
	dir := t.TempDir()
	w, segs := openSegDB(t, dir, 1, SegmentOptions{NoFsync: true})
	addRange(t, w, 0, 3)
	fdb, f := openFollower(t, dir)

	// The next record, as the writer would frame it.
	serial, e := w.Serial()+1, mkEntry(7, 1)
	enc := appendChange(nil, serial, ChangeUpsert, e)
	rec := appendLogRecord(nil, LogRec{Enc: enc, Serial: serial, Digest: chainDigest(w.Digest(), enc)})
	s := segs[0]
	write := func(b []byte) {
		s.fileMu.Lock()
		defer s.fileMu.Unlock()
		if err := s.appendLocked(b); err != nil {
			t.Fatal(err)
		}
	}
	for _, cut := range []int{1, recHeader - 1, recHeader + 3, len(rec) - 1} {
		part := append([]byte(nil), rec[:cut]...)
		write(part)
		poll(t, f)
		if fdb.Serial() != w.Serial() {
			t.Fatalf("cut %d: applied a half-written record", cut)
		}
		// Take the part back out so the next cut starts clean.
		s.fileMu.Lock()
		s.activeSize -= int64(cut)
		if err := s.active.Truncate(s.activeSize); err != nil {
			t.Fatal(err)
		}
		if _, err := s.active.Seek(s.activeSize, 0); err != nil {
			t.Fatal(err)
		}
		s.fileMu.Unlock()
	}
	write(rec[:len(rec)/2])
	poll(t, f)
	write(rec[len(rec)/2:])
	poll(t, f)
	if fdb.Serial() != serial {
		t.Fatalf("completed record not applied: serial %d, want %d", fdb.Serial(), serial)
	}
	if _, err := fdb.Get(e.Name, e.Instance); err != nil {
		t.Fatal(err)
	}
}

// TestFollowerLeavesDirectoryUntouched: opening, polling and closing a
// follower creates, truncates and removes nothing — not even the torn
// tail a writer's open would cut — and a follower never creates a
// missing database.
func TestFollowerLeavesDirectoryUntouched(t *testing.T) {
	dir := t.TempDir()
	w, segs := openSegDB(t, dir, 2, SegmentOptions{SegmentBytes: 512, CompactAfter: 1000, NoFsync: true})
	addRange(t, w, 0, 40)
	if err := segs[0].Compact(); err != nil {
		t.Fatal(err)
	}
	addRange(t, w, 40, 45)
	for _, s := range segs {
		s.Close()
	}
	// A torn tail in shard 1's last segment.
	sub := filepath.Join(dir, shardDirName(1))
	seqs, err := listSegments(sub)
	if err != nil {
		t.Fatal(err)
	}
	last, err := os.OpenFile(filepath.Join(sub, segName(seqs[len(seqs)-1])), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	last.Write([]byte{0, 0, 0, 40, 1, 2})
	last.Close()

	before := dirImage(t, dir)
	fdb, f := openFollower(t, dir)
	for i := 0; i < 3; i++ {
		poll(t, f)
	}
	if fdb.Len() != 45 {
		t.Fatalf("follower holds %d principals, want 45", fdb.Len())
	}
	f.Close()
	after := dirImage(t, dir)
	if len(before) != len(after) {
		t.Fatalf("follower changed the file set: %d files before, %d after", len(before), len(after))
	}
	for path, data := range before {
		if after[path] != data {
			t.Fatalf("follower changed %s", path)
		}
	}

	missing := filepath.Join(t.TempDir(), "nothing-here")
	if _, _, err := OpenFollower(followMaster, missing); err == nil {
		t.Fatal("follower opened a directory with no database")
	}
	if _, err := os.Stat(missing); !os.IsNotExist(err) {
		t.Fatalf("follower created %s: %v", missing, err)
	}
}

// TestFollowerConcurrentWriter runs a writer, a polling follower and
// readers of the follower's database at once (the race-regress target),
// then checks the follower converges on the writer.
func TestFollowerConcurrentWriter(t *testing.T) {
	dir := t.TempDir()
	w, _ := openSegDB(t, dir, 2, SegmentOptions{SegmentBytes: 1024, CompactAfter: 2, NoFsync: true})
	addRange(t, w, 0, 10)
	fdb, f := openFollower(t, dir)

	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		for !stop.Load() {
			if err := f.Poll(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; !stop.Load(); i++ {
			if e, err := fdb.GetRO(fmt.Sprintf("user%04d", i%10), ""); err == nil {
				fdb.KeyCipher(e)
			}
		}
	}()
	for i := 10; i < 300; i++ {
		addRange(t, w, i, i+1)
		if i%7 == 0 {
			if err := w.SetKey(fmt.Sprintf("user%04d", i/2), "", des.StringToKey("r", "R"), "t", t0); err != nil {
				t.Fatal(err)
			}
		}
	}
	stop.Store(true)
	wg.Wait()
	poll(t, f)
	sameAs(t, "after concurrent churn", fdb, w)
}

// TestFollowerFollowLoop: Follow keeps the database current on its
// own, and Close stops the loop and refuses later polls.
func TestFollowerFollowLoop(t *testing.T) {
	dir := t.TempDir()
	w, _ := openSegDB(t, dir, 1, SegmentOptions{NoFsync: true})
	addRange(t, w, 0, 3)
	fdb, f, err := OpenFollower(followMaster, dir)
	if err != nil {
		t.Fatal(err)
	}
	f.Follow(t.Logf)
	addRange(t, w, 3, 8)
	deadline := time.Now().Add(10 * time.Second)
	for fdb.Serial() != w.Serial() {
		if time.Now().After(deadline) {
			t.Fatalf("follower stuck at serial %d, writer at %d", fdb.Serial(), w.Serial())
		}
		time.Sleep(FollowPeriod / 5)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Poll(); !errors.Is(err, errFollowerClosed) {
		t.Fatalf("poll after Close: %v", err)
	}
}

// TestFollowerStartupStats: the follower reports how each shard came
// up, as a writer does.
func TestFollowerStartupStats(t *testing.T) {
	dir := t.TempDir()
	w, segs := openSegDB(t, dir, 3, SegmentOptions{NoFsync: true})
	addRange(t, w, 0, 30)
	for _, s := range segs {
		s.Close()
	}
	_, f := openFollower(t, dir)
	stats := f.StartupStats()
	if len(stats) != 3 {
		t.Fatalf("%d shard stats, want 3", len(stats))
	}
	replayed := 0
	for _, st := range stats {
		replayed += st.ReplayRecords
	}
	if replayed != 30 {
		t.Fatalf("replayed %d records, want 30", replayed)
	}
}

// TestFollowerOpenJournal: a follower opened over a directory with
// records past its base journals them, so it serves a slave one change
// behind — and one at the base — a delta of the records on disk.
func TestFollowerOpenJournal(t *testing.T) {
	dir := t.TempDir()
	w, segs := openSegDB(t, dir, 1, SegmentOptions{SegmentBytes: 512, CompactAfter: 1000, NoFsync: true})
	addRange(t, w, 0, 40)
	if err := segs[0].Compact(); err != nil {
		t.Fatal(err)
	}
	addRange(t, w, 40, 45)
	base, err := readKDB4Meta(filepath.Join(dir, shardDirName(0), segBase4Name))
	if err != nil {
		t.Fatal(err)
	}
	// The records past the base, as the writer framed them on disk.
	var onDisk []LogRec
	seqs, err := listSegments(filepath.Join(dir, shardDirName(0)))
	if err != nil {
		t.Fatal(err)
	}
	for _, seq := range seqs {
		data, err := os.ReadFile(filepath.Join(dir, shardDirName(0), segName(seq)))
		if err != nil {
			t.Fatal(err)
		}
		readChanges(data, func(c Change) {
			if c.Serial > base.Serial {
				onDisk = append(onDisk, c.LogRec)
			}
		})
	}
	if len(onDisk) == 0 || onDisk[len(onDisk)-1].Serial != w.Serial() {
		t.Fatalf("%d records past the base at %d, writer at %d", len(onDisk), base.Serial, w.Serial())
	}

	fdb, _ := openFollower(t, dir)
	n := len(onDisk)
	for _, tc := range []struct {
		name string
		at   DumpMeta
		want []LogRec
	}{
		{"one change behind", DumpMeta{onDisk[n-2].Serial, onDisk[n-2].Digest}, onDisk[n-1:]},
		{"at the base", base, onDisk},
	} {
		got, v := fdb.ChangesSinceShard(0, tc.at.Serial, tc.at.Digest)
		if v != DeltaOK || len(got) != len(tc.want) {
			t.Fatalf("%s: %d changes (%v), want %d", tc.name, len(got), v, len(tc.want))
		}
		for i := range got {
			if got[i].Serial != tc.want[i].Serial || got[i].Digest != tc.want[i].Digest ||
				!bytes.Equal(got[i].Enc, tc.want[i].Enc) {
				t.Fatalf("%s: record %d is not the one on disk", tc.name, i)
			}
		}
		changes, err := DecodeChanges(EncodeChanges(got))
		if err != nil || len(changes) != len(tc.want) {
			t.Fatalf("%s: served records do not decode: %v", tc.name, err)
		}
	}
	// Below the base the records are folded away: a full dump.
	if _, v := fdb.ChangesSinceShard(0, base.Serial-1, 0); v != FallbackRetention {
		t.Fatalf("below the base: %v", v)
	}
}
