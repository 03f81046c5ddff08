package kdb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
	"unsafe"

	"kerberos/internal/des"
)

// entryStructBytes approximates one slab entry's in-memory index cost
// (the string/key bytes themselves are counted with the mapping).
const entryStructBytes = int64(unsafe.Sizeof(Entry{}))

// flatResidentEstimate approximates the heap cost of entries decoded
// from a legacy flat base: struct plus owned variable-length data.
func flatResidentEstimate(entries []*Entry) int64 {
	n := int64(0)
	for _, e := range entries {
		n += entryStructBytes +
			int64(len(e.Name)+len(e.Instance)+len(e.EncKey)+len(e.ModBy))
	}
	return n
}

// SegmentStore is the append-only disk backend: the one persisting
// Store, on the master (kadmind) and on every slave (kpropd) alike. The
// on-disk form is a base snapshot plus a sequence of segment logs:
//
//	base.kdb4         page-aligned KDB4 snapshot at some (serial, digest)
//	seg-00000001.log  framed change records after the base
//	seg-00000002.log  ...
//
// (Pre-KDB4 databases carry a base.kdb v2 dump instead. It still loads,
// read once as an import, and the first compaction or ReplaceAll
// upgrades it to KDB4, the only base format the store writes.)
//
// A mutation appends one framed record — the change's appendChange
// encoding, the very bytes the journal keeps and kprop ships — to
// the active (highest-numbered) segment: O(change) bytes written, never a
// full-file rewrite. When the active segment passes SegmentBytes it is
// sealed by opening the next segment; sealed segments are immutable. A
// background compactor folds sealed segments into a fresh base snapshot
// and deletes them, bounding startup replay to O(one segment) on top of
// mapping the base: a KDB4 base is mmapped and read in place with O(1)
// allocations, so cold start is page faults, not parsing.
//
// Crash safety is by construction: records carry a CRC and are applied
// only when complete, so a torn tail (the process died mid-append) is
// detected and truncated back to the last whole record; the base is
// replaced via temp+fsync+rename with the directory fsynced before any
// folded segment is unlinked; and a crash between installing a new
// base and deleting the segments it replaced is harmless because replay
// applies only records that extend the base's lineage (see replayLog).
//
// A store is the only writer of its directory: it holds an exclusive
// advisory lock on it from open to Close, so a second writer (two
// kadminds, or kadmind and kpropd pointed at one directory) fails to
// open. Other processes read the directory through a Follower, which
// takes no lock and writes nothing.
type SegmentStore struct {
	dir string
	opt SegmentOptions

	mem  *EpochStore
	snap *Snapshot // mmapped base the mem slab aliases; nil for flat bases

	startupNS     int64 // wall-clock open-to-serving time
	replayRecords int   // segment records replayed at open
	residentBytes int64 // mapping + index estimate at open

	// fileMu serializes everything that touches the files: appends,
	// sealing, compaction install, ReplaceAll. The in-memory apply
	// happens inside the same window so file order and memory order
	// cannot diverge.
	fileMu     sync.Mutex
	unlock     func() error // releases the directory lock
	active     *os.File
	activeSeq  uint64
	activeSize int64
	sealed     []uint64 // sealed segment seqs, ascending, not yet compacted

	lastMeta DumpMeta // meta of the newest durable record (or the base)

	compactCh  chan struct{}
	done       chan struct{}
	closeOnce  sync.Once
	wg         sync.WaitGroup
	compactMu  sync.Mutex // one compaction at a time
	compactErr error
	compacts   int // completed compactions (tests)

	// dirSync, when set, replaces syncDir's directory fsync. Only tests
	// set it, to make the fsync fail at a chosen point.
	dirSync func() error
}

// SegmentOptions tunes a SegmentStore.
type SegmentOptions struct {
	// SegmentBytes seals the active segment once it reaches this size.
	// Default 1 MiB.
	SegmentBytes int64
	// CompactAfter triggers background compaction once this many sealed
	// segments accumulate. Default 4.
	CompactAfter int
	// NoFsync skips the fsync after each append (benchmarks; a crash may
	// lose the tail but never corrupts — torn records truncate away).
	NoFsync bool
}

func (o *SegmentOptions) defaults() {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 1 << 20
	}
	if o.CompactAfter <= 0 {
		o.CompactAfter = 4
	}
}

// ErrBadSegment reports a segment log that failed structural validation
// somewhere other than its tail.
var ErrBadSegment = errors.New("kdb: corrupt segment log")

// ErrLocked reports a segment directory another writer holds open.
var ErrLocked = errors.New("kdb: database directory is locked by another writer")

const (
	segBaseName  = "base.kdb"  // legacy v2 dump base (read-only import)
	segBase4Name = "base.kdb4" // KDB4 snapshot base
	segPrefix    = "seg-"
	segSuffix    = ".log"
	recHeader    = 4 + 4 + 8 + 8 // len + crc + serial + digest
	maxLogRecord = 1 << 24
)

func segName(seq uint64) string { return fmt.Sprintf("%s%08d%s", segPrefix, seq, segSuffix) }

// appendLogRecord frames one record:
//
//	[u32 payload len][u32 CRC-32 (IEEE) of payload][payload]
//	payload = [u64 serial][u64 digest][appendChange encoding]
//
// The serial rides in the frame as well as in the encoding, and a reader
// refuses a record whose two disagree; the digest lets a reader check
// each record against the lineage rule (DumpMeta.next).
func appendLogRecord(buf []byte, rec LogRec) []byte {
	payloadLen := 16 + len(rec.Enc)
	buf = binary.BigEndian.AppendUint32(buf, uint32(payloadLen))
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0) // crc placeholder
	buf = binary.BigEndian.AppendUint64(buf, rec.Serial)
	buf = binary.BigEndian.AppendUint64(buf, rec.Digest)
	buf = append(buf, rec.Enc...)
	crc := crc32.ChecksumIEEE(buf[start+4:])
	binary.BigEndian.PutUint32(buf[start:], crc)
	return buf
}

// OpenSegmentStore opens (or creates) a segment-log store in dir.
func OpenSegmentStore(dir string, opt SegmentOptions) (*SegmentStore, error) {
	s := newSegmentStore(dir, opt)
	if err := s.open(); err != nil {
		return nil, err
	}
	return s, nil
}

// newSegmentStore returns an unopened store for dir.
func newSegmentStore(dir string, opt SegmentOptions) *SegmentStore {
	opt.defaults()
	return &SegmentStore{
		dir:       dir,
		opt:       opt,
		compactCh: make(chan struct{}, 1),
		done:      make(chan struct{}),
	}
}

// open creates the directory if needed, loads the store, and starts
// its compactor.
//
//kerb:clockadapter -- measures wall-clock startup cost for the kdb_startup_ms gauge; no protocol time derives from it
func (s *SegmentStore) open() error {
	start := time.Now()
	if err := os.MkdirAll(s.dir, 0o700); err != nil {
		return fmt.Errorf("kdb: opening segment store: %w", err)
	}
	unlock, err := lockDir(s.dir)
	if err != nil {
		return err
	}
	if err := s.load(); err != nil {
		if s.snap != nil {
			s.snap.Close()
		}
		unlock()
		return err
	}
	s.unlock = unlock
	s.startupNS = time.Since(start).Nanoseconds()
	s.wg.Add(1)
	go s.compactor()
	if len(s.sealed) >= s.opt.CompactAfter {
		s.kickCompactor()
	}
	return nil
}

// load replays base + segments into memory, truncates a torn tail, and
// opens the active segment.
func (s *SegmentStore) load() error {
	img, err := readImage(s.dir, true)
	if err != nil {
		return err
	}
	s.mem, s.snap, s.lastMeta = img.mem, img.snap, img.meta
	s.replayRecords, s.residentBytes = len(img.changes), img.resident
	if len(img.seqs) == 0 {
		s.activeSeq = 1
	} else {
		s.activeSeq = img.seqs[len(img.seqs)-1]
		s.sealed = img.seqs[:len(img.seqs)-1]
	}
	path := filepath.Join(s.dir, segName(s.activeSeq))
	if img.end < img.size {
		// Torn tail: drop the partial record, keep everything before.
		if err := os.Truncate(path, img.end); err != nil {
			return fmt.Errorf("kdb: truncating torn segment: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE, 0o600)
	if err != nil {
		return fmt.Errorf("kdb: opening active segment: %w", err)
	}
	// The active segment's directory entry must be durable.
	if err := s.syncDir(); err != nil {
		f.Close()
		return fmt.Errorf("kdb: syncing %s after opening active segment: %w", s.dir, err)
	}
	size, err := f.Seek(0, 2)
	if err != nil {
		f.Close()
		return fmt.Errorf("kdb: seeking active segment: %w", err)
	}
	s.active, s.activeSize = f, size
	return nil
}

// segImage is one read of a shard directory: its base and every whole
// record that extends the base's lineage, in a private EpochStore.
type segImage struct {
	mem      *EpochStore
	snap     *Snapshot   // base the image aliases; nil for a flat or absent base
	base     os.FileInfo // the KDB4 base as found before reading it; nil if none
	from     DumpMeta    // lineage of the base
	meta     DumpMeta    // lineage after the last replayed record
	changes  []Change    // the records replayed on top of the base, in order
	seqs     []uint64    // segments found, ascending
	end      int64       // offset after the last whole record of the last segment
	size     int64       // length of the last segment as read
	resident int64       // base mapping/heap + index estimate
	ends     []DumpMeta  // lineage at the end of each segment but the last
}

// readImage loads dir's base and replays its segments. mapBase maps a
// KDB4 base (the cold-start path); otherwise it is read onto the heap.
// A damaged record in a segment other than the last is corruption
// (ErrBadSegment); in the last it ends the replay, reported as end <
// size (a torn tail for the writer to truncate, a record still being
// written for a follower). A segment that vanishes while being read was
// folded by a compaction in another process, and is skipped.
//
// A KDB4 base is preferred over a legacy flat one: whenever both exist
// the KDB4 file is the newer (bases are only written by compaction and
// ReplaceAll, both of which remove the other format after installing).
func readImage(dir string, mapBase bool) (*segImage, error) {
	img := &segImage{mem: NewEpochStore()}
	err := img.loadBases(dir, mapBase)
	if err == nil {
		img.from = img.meta
		err = img.replay(dir)
	}
	if err != nil {
		if img.snap != nil {
			img.snap.Close()
		}
		return nil, err
	}
	return img, nil
}

// loadBases installs the KDB4 base, or else a legacy flat one, if
// either exists.
func (img *segImage) loadBases(dir string, mapBase bool) error {
	if ok, err := img.loadBase(dir, mapBase); ok || err != nil {
		return err
	}
	return img.loadFlatBase(dir)
}

// loadBase installs the KDB4 base, reporting false when there is none.
func (img *segImage) loadBase(dir string, mapBase bool) (bool, error) {
	path := filepath.Join(dir, segBase4Name)
	fi, err := os.Stat(path)
	if os.IsNotExist(err) {
		return false, nil
	} else if err != nil {
		return false, fmt.Errorf("kdb: loading %s: %w", segBase4Name, err)
	}
	var sn *Snapshot
	if mapBase {
		sn, err = OpenKDB4(path)
	} else {
		var data []byte
		if data, err = os.ReadFile(path); err == nil {
			sn, err = ParseKDB4(data)
		}
	}
	if err != nil {
		return false, fmt.Errorf("kdb: loading %s: %w", segBase4Name, err)
	}
	table, err := sn.Index()
	if err != nil {
		sn.Close()
		return false, fmt.Errorf("kdb: loading %s: %w", segBase4Name, err)
	}
	// The records serve reads in place: install the snapshot and its
	// precomputed probe table, and each read decodes the record it
	// needs into the caller's Entry. Startup cost is validation, not
	// decoding.
	img.mem.installSnapshot(sn, table)
	img.snap, img.base, img.meta = sn, fi, sn.Meta()
	// The mapping is all there is: reads keep nothing per record.
	img.resident = sn.Bytes()
	return true, nil
}

// loadFlatBase imports a legacy base.kdb dump, if there is one.
func (img *segImage) loadFlatBase(dir string) error {
	data, err := os.ReadFile(filepath.Join(dir, segBaseName))
	if os.IsNotExist(err) {
		return nil
	} else if err != nil {
		return fmt.Errorf("kdb: reading %s: %w", segBaseName, err)
	}
	entries, meta, err := ParseDumpFull(data)
	if err != nil {
		return fmt.Errorf("kdb: parsing %s: %w", segBaseName, err)
	}
	img.mem.ReplaceAll(entries, meta)
	img.meta = meta
	img.resident = flatResidentEstimate(entries)
	return nil
}

// apply replays one change into the image.
func (img *segImage) apply(c Change) {
	if c.Op == ChangeDelete {
		img.mem.Delete(c.Entry.ID())
	} else {
		img.mem.Put(c.Entry)
	}
}

// replay applies every segment's records on top of the base, keeping
// them.
func (img *segImage) replay(dir string) error {
	seqs, err := listSegments(dir)
	if err != nil {
		return err
	}
	for i, seq := range seqs {
		data, err := os.ReadFile(filepath.Join(dir, segName(seq)))
		if os.IsNotExist(err) {
			continue
		} else if err != nil {
			return fmt.Errorf("kdb: reading segment: %w", err)
		}
		end := replayLog(data, &img.meta, func(c Change) {
			img.apply(c)
			img.changes = append(img.changes, c)
		})
		if i < len(seqs)-1 {
			if end < len(data) {
				return fmt.Errorf("%w: %s at offset %d", ErrBadSegment, segName(seq), end)
			}
			img.ends = append(img.ends, img.meta)
		}
		img.end, img.size = int64(end), int64(len(data))
	}
	img.seqs = seqs
	return nil
}

// listSegments returns the segment seqs in dir, ascending.
func listSegments(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("kdb: listing %s: %w", dir, err)
	}
	var seqs []uint64
	for _, de := range ents {
		name := de.Name()
		if len(name) != len(segPrefix)+8+len(segSuffix) ||
			name[:len(segPrefix)] != segPrefix || name[len(name)-len(segSuffix):] != segSuffix {
			continue
		}
		var seq uint64
		if _, err := fmt.Sscanf(name[len(segPrefix):len(name)-len(segSuffix)], "%d", &seq); err != nil {
			continue
		}
		seqs = append(seqs, seq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	return seqs, nil
}

// since returns the image's records past the lineage point at, and
// whether the image's history holds at (the base is at it, or a
// replayed record lands on it).
func (img *segImage) since(at DumpMeta) ([]Change, bool) {
	if at.Serial < img.from.Serial || at.Serial-img.from.Serial > uint64(len(img.changes)) {
		return nil, false
	}
	k := at.Serial - img.from.Serial
	d := img.from.Digest
	if k > 0 {
		d = img.changes[k-1].Digest
	}
	return img.changes[k:], d == at.Digest
}

// records returns the LogRecs of changes.
func records(changes []Change) []LogRec {
	recs := make([]LogRec, len(changes))
	for i, c := range changes {
		recs[i] = c.LogRec
	}
	return recs
}

// replayLog calls apply on each record in data that extends meta's
// lineage (DumpMeta.next), advancing meta past it. Records at or below
// meta.Serial are already in the base. A record that does not extend the
// lineage belongs to one a later base replaced (a crash between
// ReplaceAll's base install and its segment removal) and is skipped. It
// returns what readChanges returns.
func replayLog(data []byte, meta *DumpMeta, apply func(Change)) int {
	return readChanges(data, func(c Change) {
		if next, ok := meta.next(c.LogRec); ok {
			*meta = next
			apply(c)
		}
	})
}

// readChanges decodes the whole framed records at the head of data and
// calls fn with each, its Enc aliasing data. It returns the offset of the
// first incomplete or damaged record, len(data) when every record is
// whole.
func readChanges(data []byte, fn func(Change)) int {
	off := 0
	for off < len(data) {
		rec, n, ok := readLogRecord(data[off:])
		if !ok {
			return off
		}
		c, err := decodeChange(rec.Enc)
		if err != nil || len(c.Enc) != len(rec.Enc) || c.Serial != rec.Serial {
			return off
		}
		c.Digest = rec.Digest
		fn(c)
		off += n
	}
	return off
}

// readLogRecord parses one framed record from the head of data. ok is
// false when the record is incomplete or fails its CRC.
func readLogRecord(data []byte) (LogRec, int, bool) {
	if len(data) < recHeader {
		return LogRec{}, 0, false
	}
	payloadLen := int(binary.BigEndian.Uint32(data))
	if payloadLen < 16 || payloadLen > maxLogRecord || len(data) < 8+payloadLen {
		return LogRec{}, 0, false
	}
	crc := binary.BigEndian.Uint32(data[4:])
	payload := data[8 : 8+payloadLen]
	//kerb:ignore consttime -- CRC-32 detects torn disk writes, not forgery; nothing here is keyed
	if crc32.ChecksumIEEE(payload) != crc {
		return LogRec{}, 0, false
	}
	rec := LogRec{
		Serial: binary.BigEndian.Uint64(payload),
		Digest: binary.BigEndian.Uint64(payload[8:]),
		Enc:    payload[16:],
	}
	return rec, 8 + payloadLen, true
}

// LoadedMeta implements Store: the lineage of the newest durable record
// (at open, base plus segment replay), so the Database resumes the
// on-disk serial and digest.
func (s *SegmentStore) LoadedMeta() DumpMeta {
	s.fileMu.Lock()
	defer s.fileMu.Unlock()
	return s.lastMeta
}

// StartupStats is the cold-start cost observed when the store opened.
type StartupStats struct {
	StartupNS     int64 // open-to-serving wall time
	ReplayRecords int   // segment records replayed on top of the base
	ResidentBytes int64 // base mapping/heap + slab index estimate
	MappedBase    bool  // base came in via mmap (vs read or flat decode)
}

// StartupStats reports how this store came up (the kdb_startup_ms /
// kdb_replay_records / kdb_resident_bytes gauges).
func (s *SegmentStore) StartupStats() StartupStats {
	s.fileMu.Lock()
	defer s.fileMu.Unlock()
	return StartupStats{
		StartupNS:     s.startupNS,
		ReplayRecords: s.replayRecords,
		ResidentBytes: s.residentBytes,
		MappedBase:    s.snap != nil && s.snap.Mapped(),
	}
}

// syncDir fsyncs the store directory, making renames, creations, and
// unlinks durable in order. Skipped under NoFsync.
func (s *SegmentStore) syncDir() error {
	if s.dirSync != nil {
		return s.dirSync()
	}
	if s.opt.NoFsync {
		return nil
	}
	d, err := os.Open(s.dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// installBase atomically writes a KDB4 base and makes the swap durable:
// rename, directory fsync, removal of a legacy flat base, directory
// fsync again. Only after installBase returns may the records the base
// covers be deleted — the ordering is what keeps a power cut from
// resurrecting folded segments.
func (s *SegmentStore) installBase(data []byte) error {
	if err := WriteFileAtomic(filepath.Join(s.dir, segBase4Name), data, 0o600); err != nil {
		return err
	}
	if err := s.syncDir(); err != nil {
		return fmt.Errorf("kdb: syncing %s after base install: %w", s.dir, err)
	}
	if err := os.Remove(filepath.Join(s.dir, segBaseName)); err == nil {
		if err := s.syncDir(); err != nil {
			return fmt.Errorf("kdb: syncing %s after stale base removal: %w", s.dir, err)
		}
	} else if !os.IsNotExist(err) {
		return fmt.Errorf("kdb: removing stale base: %w", err)
	}
	return nil
}

// ApplyLogged implements Store: one buffered write of the framed
// records to the active segment, one fsync, one in-memory batch — all in
// a single lock window so file order is memory order.
func (s *SegmentStore) ApplyLogged(recs []LogRec, upserts []*Entry, deletes []string) error {
	if len(recs) == 0 {
		return nil
	}
	var buf []byte
	for _, rec := range recs {
		buf = appendLogRecord(buf, rec)
	}
	s.fileMu.Lock()
	defer s.fileMu.Unlock()
	if err := s.appendLocked(buf); err != nil {
		return err
	}
	s.lastMeta = DumpMeta{Serial: recs[len(recs)-1].Serial, Digest: recs[len(recs)-1].Digest}
	s.mem.ApplyBatch(upserts, deletes)
	s.maybeSealLocked()
	return nil
}

func (s *SegmentStore) appendLocked(buf []byte) error {
	if _, err := s.active.Write(buf); err != nil {
		return fmt.Errorf("kdb: appending segment record: %w", err)
	}
	if !s.opt.NoFsync {
		if err := s.active.Sync(); err != nil {
			return fmt.Errorf("kdb: syncing segment: %w", err)
		}
	}
	s.activeSize += int64(len(buf))
	return nil
}

// maybeSealLocked rolls to the next segment once the active one is full.
func (s *SegmentStore) maybeSealLocked() {
	if s.activeSize < s.opt.SegmentBytes {
		return
	}
	next := s.activeSeq + 1
	path := filepath.Join(s.dir, segName(next))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o600)
	if err != nil {
		// Keep appending to the oversized segment; sealing retries on the
		// next append.
		return
	}
	// Make the new segment's directory entry durable before records
	// land in it; otherwise a power cut could keep the records' blocks
	// while losing the file that names them. If that fails, drop the
	// new segment and keep appending to the current one, as above.
	if err := s.syncDir(); err != nil {
		f.Close()
		os.Remove(path)
		return
	}
	s.active.Close()
	s.sealed = append(s.sealed, s.activeSeq)
	s.active, s.activeSeq, s.activeSize = f, next, 0
	if len(s.sealed) >= s.opt.CompactAfter {
		s.kickCompactor()
	}
}

func (s *SegmentStore) kickCompactor() {
	select {
	case s.compactCh <- struct{}{}:
	default:
	}
}

func (s *SegmentStore) compactor() {
	defer s.wg.Done()
	for {
		select {
		case <-s.done:
			return
		case <-s.compactCh:
			if err := s.Compact(); err != nil {
				s.fileMu.Lock()
				s.compactErr = err
				s.fileMu.Unlock()
			}
		}
	}
}

// Compact folds every sealed segment but the newest into a fresh base
// snapshot and deletes them. Sealed segments and the current base are immutable, so the fold
// runs without blocking appends; only the final install (rename + segment
// deletion) takes the file lock. Safe to call concurrently with
// mutations; also called synchronously by tests.
func (s *SegmentStore) Compact() error {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()

	s.fileMu.Lock()
	seqs := append([]uint64(nil), s.sealed...)
	s.fileMu.Unlock()
	// The newest sealed segment stays: a follower a poll behind may not
	// have read its last records yet, and a fold that took them would
	// send it to re-read the whole shard.
	if len(seqs) < 2 {
		return nil
	}
	seqs = seqs[:len(seqs)-1]

	// Fold base + sealed segments outside the lock, on the heap (the
	// base is read, not mapped, so the fold's memory is collected
	// normally).
	img := &segImage{mem: NewEpochStore()}
	if err := img.loadBases(s.dir, false); err != nil {
		return fmt.Errorf("kdb: compacting: %w", err)
	}
	for _, seq := range seqs {
		data, err := os.ReadFile(filepath.Join(s.dir, segName(seq)))
		if err != nil {
			return fmt.Errorf("kdb: compacting: %w", err)
		}
		if end := replayLog(data, &img.meta, img.apply); end < len(data) {
			return fmt.Errorf("%w: %s at offset %d (sealed)", ErrBadSegment, segName(seq), end)
		}
	}
	entries := make([]*Entry, 0, img.mem.Len())
	img.mem.Range(func(e *Entry) bool {
		entries = append(entries, e)
		return true
	})
	data, err := EncodeKDB4(entries, img.meta)
	if err != nil {
		return fmt.Errorf("kdb: compacting: encoding base: %w", err)
	}
	if err := s.installBase(data); err != nil {
		return fmt.Errorf("kdb: compacting: installing base: %w", err)
	}

	// Install: the new base is durable (file and directory entry both
	// fsynced) and covers everything in the folded segments, so deleting
	// them is safe — and a crash before the deletions is also safe,
	// because replay skips records at or below the base serial.
	s.fileMu.Lock()
	remaining := s.sealed[:0]
	folded := make(map[uint64]bool, len(seqs))
	for _, seq := range seqs {
		folded[seq] = true
	}
	for _, seq := range s.sealed {
		if !folded[seq] {
			remaining = append(remaining, seq)
		}
	}
	s.sealed = append([]uint64(nil), remaining...)
	s.compacts++
	s.fileMu.Unlock()
	for _, seq := range seqs {
		os.Remove(filepath.Join(s.dir, segName(seq)))
	}
	return nil
}

// Compactions reports how many background compactions have completed.
func (s *SegmentStore) Compactions() int {
	s.fileMu.Lock()
	defer s.fileMu.Unlock()
	return s.compacts
}

// CompactErr returns the last background compaction error, if any.
func (s *SegmentStore) CompactErr() error {
	s.fileMu.Lock()
	defer s.fileMu.Unlock()
	return s.compactErr
}

// Close stops the compactor, closes the active segment, and releases
// the base mapping and the directory lock. Entries served from the store (shared fetches over
// the mmapped slab) must not be used after Close — the same discipline
// file handles already imposed. Closing an already-closed store is a
// no-op.
func (s *SegmentStore) Close() error {
	s.closeOnce.Do(func() { close(s.done) })
	s.wg.Wait()
	s.fileMu.Lock()
	defer s.fileMu.Unlock()
	var err error
	if s.active != nil {
		if !s.opt.NoFsync {
			s.active.Sync()
		}
		err = s.active.Close()
		s.active = nil
	}
	if s.snap != nil {
		if cerr := s.snap.Close(); cerr != nil && err == nil {
			err = cerr
		}
		s.snap = nil
	}
	if s.unlock != nil {
		if cerr := s.unlock(); cerr != nil && err == nil {
			err = cerr
		}
		s.unlock = nil
	}
	return err
}

// Lookup implements Store: the KDC's lock-free, zero-allocation read
// path over the epoch index.
func (s *SegmentStore) Lookup(name, instance string, dst *Entry) bool {
	return s.mem.Lookup(name, instance, dst)
}

// Range implements Store.
func (s *SegmentStore) Range(fn func(*Entry) bool) { s.mem.Range(fn) }

// Len implements Store.
func (s *SegmentStore) Len() int { return s.mem.Len() }

// ReplaceAll implements Store: bulk replacement (a propagated full
// dump) writes a fresh base snapshot and starts an empty segment — the
// one legitimately whole-file write left, and it is O(new contents). It
// waits out any running compaction: both write the base file, and a
// fold of the old segments must not land over the new base.
//
// On error the store keeps serving its previous contents and lineage.
// The files may by then hold the new base beside the old segments; a
// reopen loads that base and skips the old records, which do not extend
// its lineage.
func (s *SegmentStore) ReplaceAll(entries []*Entry, meta DumpMeta) error {
	s.compactMu.Lock()
	defer s.compactMu.Unlock()
	s.fileMu.Lock()
	defer s.fileMu.Unlock()
	data, err := EncodeKDB4(sortedEntriesByID(entries), meta)
	if err != nil {
		return fmt.Errorf("kdb: encoding base: %w", err)
	}
	if err := s.installBase(data); err != nil {
		return fmt.Errorf("kdb: replacing base: %w", err)
	}
	// Drop every segment: the new base supersedes them all.
	next := s.activeSeq + 1
	path := filepath.Join(s.dir, segName(next))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o600)
	if err != nil {
		return fmt.Errorf("kdb: rolling segment: %w", err)
	}
	if err := s.syncDir(); err != nil {
		f.Close()
		os.Remove(path)
		return fmt.Errorf("kdb: syncing %s after rolling segment: %w", s.dir, err)
	}
	old := append(append([]uint64(nil), s.sealed...), s.activeSeq)
	s.active.Close()
	s.active, s.activeSeq, s.activeSize = f, next, 0
	s.sealed = nil
	s.lastMeta = meta
	for _, seq := range old {
		os.Remove(filepath.Join(s.dir, segName(seq)))
	}
	return s.mem.ReplaceAll(entries, meta)
}

// OpenSegmentDB opens (or creates) a sharded database over segment-log
// stores rooted at dir: shard i lives in dir/shard-NNN. The shard count
// is fixed at creation. shards <= 0 takes an existing directory's count
// (one shard for a new one); a positive count that differs from an
// existing directory's is an error.
func OpenSegmentDB(masterKey des.Key, dir string, shards int, opt SegmentOptions) (*Database, []*SegmentStore, error) {
	existing, err := DetectShards(dir)
	if err != nil {
		return nil, nil, err
	}
	switch {
	case shards <= 0 && existing > 0:
		shards = existing
	case shards <= 0:
		shards = 1
	case existing > 0 && existing != shards:
		return nil, nil, fmt.Errorf("kdb: %s holds %d shards, asked for %d", dir, existing, shards)
	}
	// Open every shard concurrently: each shard maps its own base and
	// replays its own segment tail, so an N-shard cold start is the
	// slowest shard, not the sum. Torn-tail handling and ErrBadSegment
	// semantics are per shard and unchanged; shard directories are
	// disjoint, so the loads share nothing.
	stores := make([]Store, shards)
	segs := make([]*SegmentStore, shards)
	errs := make([]error, shards)
	var wg sync.WaitGroup
	for i := 0; i < shards; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := OpenSegmentStore(filepath.Join(dir, shardDirName(i)), opt)
			if err != nil {
				errs[i] = err
				return
			}
			stores[i], segs[i] = s, s
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			// Deterministic error (lowest shard wins) and no leaked stores.
			for _, s := range segs {
				if s != nil {
					s.Close()
				}
			}
			return nil, nil, err
		}
	}
	return NewSharded(masterKey, stores), segs, nil
}

func shardDirName(i int) string { return fmt.Sprintf("shard-%03d", i) }

// DetectShards counts the shard-NNN subdirectories of a segment database
// root (0 when dir does not exist or holds none).
func DetectShards(dir string) (int, error) {
	ents, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, fmt.Errorf("kdb: listing %s: %w", dir, err)
	}
	n := 0
	for _, de := range ents {
		var i int
		if de.IsDir() {
			if _, err := fmt.Sscanf(de.Name(), "shard-%03d", &i); err == nil {
				n++
			}
		}
	}
	return n, nil
}
