package kdb

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"time"

	"kerberos/internal/des"
)

// FollowPeriod is how often a Follower looks for records another
// process has appended.
const FollowPeriod = 250 * time.Millisecond

// Follower keeps a read-only Database in step with a segment directory
// that another process writes: kerberosd and kprop follow the directory
// kadmind writes on the master, and a slave's kerberosd follows the one
// its kpropd writes. The paper's daemons shared one ndbm database on a
// machine the same way (§5): KDBM is its only writer, the KDC only reads.
//
// A follower maps the shards' bases and replays their whole records at
// open, and journals the records it replayed. It never creates,
// truncates, renames or deletes a file, and takes no lock. Each poll
// reads the records appended since the last one and feeds them to the
// shard through the same path a kprop delta takes (ApplyChangesShard),
// each checked against its recorded digest: the shard's journal fills
// as on a writer, so kprop can serve deltas from a follower, and a
// record that does not extend the lineage is caught.
//
// When the records cannot be bridged — a compaction folded ones the
// follower had not read, or a ReplaceAll (a full kprop install) started
// a new lineage — the follower re-reads the shard from disk. If what it
// reads still holds the follower's (serial, digest), only the records
// past it are applied and the journal is kept; otherwise the re-read
// image replaces the shard's contents and lineage in one step, and its
// records become the journal.
type Follower struct {
	shards []*followShard
	db     *Database

	done      chan struct{}
	closeOnce sync.Once
	wg        sync.WaitGroup // the Follow loop

	mu     sync.Mutex // serializes polls against each other and Close
	closed bool
}

// followShard is one shard's read position in its directory.
type followShard struct {
	dir   string
	mem   *EpochStore
	snap  *Snapshot   // the base mapped at open; nil for a flat or absent base
	base  os.FileInfo // the KDB4 base the shard last checked against
	seq   uint64      // segment the next record is read from
	off   int64       // offset of its next unread byte
	ends  []DumpMeta  // lineage at the ends of the last sealed segments read
	stats StartupStats
}

// keepEnds bounds followShard.ends. A compaction folds CompactAfter-1
// sealed segments (3 by default) and leaves the newest, so the end its
// base lands on is among the last few recorded.
const keepEnds = 16

// errFollowerClosed is what a poll after Close returns.
var errFollowerClosed = errors.New("kdb: follower closed")

// errUnbridged reports records a poll cannot apply in order.
var errUnbridged = errors.New("kdb: segment records do not extend the lineage")

// OpenFollower opens the segment database at dir read-only. The
// directory must already hold a database (kdb_init, kadmind or kpropd
// creates it); the shard count is the directory's. The returned
// Database is read-only; nothing but the Follower changes it. Run Follow
// to keep it current, and Close the Follower when done with the
// Database: the mapped bases go with it.
//
//kerb:clockadapter -- measures wall-clock startup cost for the kdb_startup_ms gauge; no protocol time derives from it
func OpenFollower(masterKey des.Key, dir string) (*Database, *Follower, error) {
	n, err := DetectShards(dir)
	if err != nil {
		return nil, nil, err
	}
	if n == 0 {
		return nil, nil, fmt.Errorf("kdb: no database in %s", dir)
	}
	f := &Follower{shards: make([]*followShard, n), done: make(chan struct{})}
	imgs := make([]*segImage, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i := range f.shards {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			start := time.Now()
			fs := &followShard{dir: filepath.Join(dir, shardDirName(i))}
			imgs[i], errs[i] = readImage(fs.dir, true)
			if errs[i] != nil {
				return
			}
			img := imgs[i]
			fs.mem, fs.snap, fs.base = img.mem, img.snap, img.base
			fs.seek(img)
			fs.stats = StartupStats{
				StartupNS:     time.Since(start).Nanoseconds(),
				ReplayRecords: len(img.changes),
				ResidentBytes: img.resident,
				MappedBase:    img.snap != nil && img.snap.Mapped(),
			}
			f.shards[i] = fs
		}(i)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		for _, img := range imgs {
			if img != nil && img.snap != nil {
				img.snap.Close()
			}
		}
		return nil, nil, err
	}
	stores := make([]Store, n)
	for i, fs := range f.shards {
		stores[i] = fs.mem
	}
	f.db = NewSharded(masterKey, stores)
	for i, sh := range f.db.shards {
		sh.resetJournalLocked(imgs[i].from, records(imgs[i].changes))
	}
	f.db.SetReadOnly(true)
	return f.db, f, nil
}

// seek positions the shard after the last whole record of img.
func (fs *followShard) seek(img *segImage) {
	fs.seq, fs.off = 0, 0
	if n := len(img.seqs); n > 0 {
		fs.seq, fs.off = img.seqs[n-1], img.end
	}
	fs.ends = nil
	fs.noteEnds(img.ends)
}

// noteEnds remembers where sealed segments ended, newest last.
func (fs *followShard) noteEnds(ends []DumpMeta) {
	fs.ends = append(fs.ends, ends...)
	if n := len(fs.ends); n > keepEnds {
		fs.ends = append([]DumpMeta(nil), fs.ends[n-keepEnds:]...)
	}
}

// StartupStats reports how each shard came up at open.
func (f *Follower) StartupStats() []StartupStats {
	out := make([]StartupStats, len(f.shards))
	for i, fs := range f.shards {
		out[i] = fs.stats
	}
	return out
}

// Follow starts polling every FollowPeriod until Close, reporting a
// poll error through logf (when not nil) whenever it differs from the
// last one. Call it once.
func (f *Follower) Follow(logf func(format string, args ...any)) {
	f.wg.Add(1)
	go func() {
		defer f.wg.Done()
		ticker := time.NewTicker(FollowPeriod)
		defer ticker.Stop()
		last := ""
		for {
			select {
			case <-f.done:
				return
			case <-ticker.C:
			}
			msg := ""
			if err := f.Poll(); errors.Is(err, errFollowerClosed) {
				return
			} else if err != nil {
				msg = err.Error()
			}
			if msg != "" && msg != last && logf != nil {
				logf("following database: %s", msg)
			}
			last = msg
		}
	}()
}

// Poll brings every shard up to the records on disk now.
func (f *Follower) Poll() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return errFollowerClosed
	}
	var errs []error
	for i, fs := range f.shards {
		if err := fs.poll(f.db.shards[i]); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", fs.dir, err))
		}
	}
	return errors.Join(errs...)
}

// Close stops Follow, waits for its loop to exit, and releases the base
// mappings. Entries served from the Database must not be used
// afterwards.
func (f *Follower) Close() error {
	f.closeOnce.Do(func() { close(f.done) })
	f.wg.Wait()
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil
	}
	f.closed = true
	var errs []error
	for _, fs := range f.shards {
		if fs.snap != nil {
			errs = append(errs, fs.snap.Close())
		}
	}
	return errors.Join(errs...)
}

// poll applies the records appended since the last poll, then checks
// whether the base was replaced; either can send the shard to resync.
func (fs *followShard) poll(sh *dbShard) error {
	if err := fs.readTail(sh); errors.Is(err, errUnbridged) {
		return fs.resync(sh)
	} else if err != nil {
		return err
	}
	fi, err := os.Stat(filepath.Join(fs.dir, segBase4Name))
	if os.IsNotExist(err) {
		return nil
	} else if err != nil {
		return err
	}
	if sameBase(fi, fs.base) {
		return nil
	}
	// A compaction's base ends where a sealed segment ended. When this
	// shard read that segment, the base folds nothing it lacks and needs
	// no reading. Anything else — a ReplaceAll's new lineage, or a fold
	// of records this shard never saw — is settled by a resync.
	if meta, err := readKDB4Meta(filepath.Join(fs.dir, segBase4Name)); err == nil {
		for _, end := range fs.ends {
			if end == meta {
				fs.base = fi
				return nil
			}
		}
	}
	return fs.resync(sh)
}

// sameBase reports whether two looks at the base found the same file.
// Size and modification time back up the inode test, whose number a
// later base may reuse once the follower has stopped holding the file.
func sameBase(a, b os.FileInfo) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return os.SameFile(a, b) && a.Size() == b.Size() && a.ModTime().Equal(b.ModTime())
}

// readTail reads every segment from the read position on and applies
// the whole records found, in order, stopping at a record still being
// written. Records that do not continue the shard's lineage are
// errUnbridged.
func (fs *followShard) readTail(sh *dbShard) error {
	seqs, err := listSegments(fs.dir)
	if err != nil {
		return err
	}
	at := DumpMeta{Serial: sh.serial.Load(), Digest: sh.digest.Load()}
	from := fs.seq
	var changes []Change
	var ends []DumpMeta
	for i, seq := range seqs {
		if seq < from {
			continue
		}
		start := int64(0)
		if seq == from {
			start = fs.off
		} else {
			// Reaching a later segment means the one before it was
			// sealed, and every record up to here was read.
			ends = append(ends, at)
		}
		data, err := readFrom(filepath.Join(fs.dir, segName(seq)), start)
		if os.IsNotExist(err) {
			continue // folded by a compaction; a gap shows in the serials
		} else if err != nil {
			return err
		}
		off := readChanges(data, func(c Change) {
			changes = append(changes, c)
			at = DumpMeta{Serial: c.Serial, Digest: c.Digest}
		})
		if off < len(data) && i < len(seqs)-1 {
			return fmt.Errorf("%w: %s at offset %d", ErrBadSegment, segName(seq), start+int64(off))
		}
		fs.seq, fs.off = seq, start+int64(off)
	}
	// Each record must extend the shard's lineage, its recorded digest
	// included; the apply checks.
	if err := sh.applyChanges(changes, 0); err != nil {
		return fmt.Errorf("%w: %v", errUnbridged, err)
	}
	fs.noteEnds(ends)
	return nil
}

// readFrom returns the bytes of path from off to its end.
func readFrom(path string, off int64) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if _, err := f.Seek(off, io.SeekStart); err != nil {
		return nil, err
	}
	return io.ReadAll(f)
}

// resync re-reads the shard from disk. Reads race the writer's
// compactions, so an image counts only if the base it started from is
// still the base when it is done; a few tries cover back-to-back
// compactions.
func (fs *followShard) resync(sh *dbShard) error {
	var img *segImage
	for try := 0; ; try++ {
		var err error
		if img, err = readImage(fs.dir, false); err != nil {
			return err
		}
		fi, err := os.Stat(filepath.Join(fs.dir, segBase4Name))
		if err != nil && !os.IsNotExist(err) {
			return err
		}
		if sameBase(fi, img.base) || try == 3 {
			break
		}
	}
	fs.base = img.base
	fs.seek(img)
	cur := DumpMeta{Serial: sh.serial.Load(), Digest: sh.digest.Load()}
	if after, ok := img.since(cur); ok {
		// The disk still holds this shard's history: keep the journal
		// and apply only what lies past it.
		return sh.applyChanges(after, 0)
	}
	sh.wmu.Lock()
	defer sh.wmu.Unlock()
	fs.mem.adopt(img.mem)
	sh.hot.retireAll()
	sh.resetJournalLocked(img.from, records(img.changes))
	return nil
}
