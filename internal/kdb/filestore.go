package kdb

import (
	"encoding/binary"
	"fmt"
	"os"
	"sync"
)

// FileStore is a write-through Store: every mutation is persisted to the
// database file before it returns, the way ndbm gave the Athena daemons
// a single shared source of truth on the master machine. kadmind runs
// over a FileStore so password changes are durable immediately, and
// kerberosd (its own process) re-reads the file when its modification
// time changes. Reads are served by the EpochStore it wraps.
type FileStore struct {
	mem  *EpochStore
	path string

	mu   sync.Mutex // serializes mutations and file writes
	meta DumpMeta   // lineage of the newest file write (or the one read)
}

// OpenFileStore opens (or creates) a file-backed store at path.
func OpenFileStore(path string) (*FileStore, error) {
	fs := &FileStore{mem: NewEpochStore(), path: path}
	data, err := os.ReadFile(path)
	switch {
	case os.IsNotExist(err):
		// Fresh database; first mutation creates the file.
	case err != nil:
		return nil, fmt.Errorf("kdb: opening %s: %w", path, err)
	default:
		entries, meta, err := ParseDumpFull(data)
		if err != nil {
			return nil, fmt.Errorf("kdb: parsing %s: %w", path, err)
		}
		fs.mem.ReplaceAll(entries, meta)
		fs.meta = meta
	}
	return fs, nil
}

// LoadedMeta implements Store: the propagation metadata found in the
// file, so the Database resumes its serial and digest instead of
// starting a new lineage on every restart.
func (fs *FileStore) LoadedMeta() DumpMeta {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	return fs.meta
}

// persistLocked writes the full store to disk atomically
// (temp+fsync+rename: a crash mid-write leaves the previous file
// intact), stamped with fs.meta. Callers hold fs.mu across both the
// in-memory change and this write, so the file always reflects the
// newest memory state: a writer can never publish an older snapshot
// over a newer one, and the stamped lineage always matches the entries
// beside it.
func (fs *FileStore) persistLocked() error {
	entries := make([]*Entry, 0, fs.mem.Len())
	fs.mem.Range(func(e *Entry) bool {
		entries = append(entries, e)
		return true
	})
	if err := WriteFileAtomic(fs.path, EncodeEntriesAt(entries, fs.meta), 0o600); err != nil {
		return fmt.Errorf("kdb: persisting: %w", err)
	}
	return nil
}

// FetchShared implements Store.
func (fs *FileStore) FetchShared(id string) (*Entry, bool) { return fs.mem.FetchShared(id) }

// FetchSharedPair implements Store.
func (fs *FileStore) FetchSharedPair(name, instance string) (*Entry, bool) {
	return fs.mem.FetchSharedPair(name, instance)
}

// Range implements Store.
func (fs *FileStore) Range(fn func(*Entry) bool) { fs.mem.Range(fn) }

// Len implements Store.
func (fs *FileStore) Len() int { return fs.mem.Len() }

// ApplyLogged implements Store: one in-memory batch and one file write
// stamped with the last record's lineage.
func (fs *FileStore) ApplyLogged(recs []LogRec, upserts []*Entry, deletes []string) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.mem.ApplyBatch(upserts, deletes)
	if n := len(recs); n > 0 {
		fs.meta = DumpMeta{Serial: recs[n-1].Serial, Digest: recs[n-1].Digest}
	}
	return fs.persistLocked()
}

// ReplaceAll implements Store. A persistence failure panics: continuing
// with a diverged file would silently violate the single-definitive-copy
// rule of §5.
func (fs *FileStore) ReplaceAll(entries []*Entry, meta DumpMeta) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	fs.mem.ReplaceAll(entries, meta)
	fs.meta = meta
	if err := fs.persistLocked(); err != nil {
		panic(err)
	}
}

// EncodeEntries serializes entries in the v1 dump format (sorted input
// is not required; output follows input order, and Range already
// sorts).
func EncodeEntries(entries []*Entry) []byte {
	return encodeEntriesMagic(entries, dumpMagic, DumpMeta{})
}

// EncodeEntriesAt serializes entries in the v2 dump format, carrying the
// propagation serial and digest.
func EncodeEntriesAt(entries []*Entry, meta DumpMeta) []byte {
	return encodeEntriesMagic(entries, dumpMagicV2, meta)
}

func encodeEntriesMagic(entries []*Entry, magic [4]byte, meta DumpMeta) []byte {
	buf := append([]byte(nil), magic[:]...)
	if magic == dumpMagicV2 {
		buf = binary.BigEndian.AppendUint64(buf, meta.Serial)
		buf = binary.BigEndian.AppendUint64(buf, meta.Digest)
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(entries)))
	for _, e := range entries {
		buf = appendString(buf, e.Name)
		buf = appendString(buf, e.Instance)
		buf = appendEntryBody(buf, e)
	}
	return buf
}
