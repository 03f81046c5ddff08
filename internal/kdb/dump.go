package kdb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"time"

	"kerberos/internal/core"
	"kerberos/internal/des"
)

// Database dumps (§5.3): "The master database is dumped every hour. The
// database is sent, in its entirety, to the slave machines, which then
// update their own databases." Private keys inside a dump remain sealed
// in the master key, so "the information passed from master to slave
// over the network is not useful to an eavesdropper."
//
// Format v2 prefixes the entries with the propagation metadata the
// incremental plane needs — the database serial and rolling digest — so
// a restarted master or slave resumes the same lineage instead of
// forcing a full resync. v1 dumps (no metadata) still load, at serial 0.

// Format v3 extends v2 for sharded databases: a vector of per-shard
// (serial, digest) pairs precedes the entries, so a same-shape database
// loading the dump resumes every shard's lineage. The entries themselves
// are shard-agnostic (globally ID-sorted); a database of a different
// shard shape can still load a v3 dump, at the cost of restarting its
// lineage (slaves heal with one full resync).
var (
	dumpMagic   = [4]byte{'K', 'D', 'B', '1'}
	dumpMagicV2 = [4]byte{'K', 'D', 'B', '2'}
	dumpMagicV3 = [4]byte{'K', 'D', 'B', '3'}
)

// maxDumpShards bounds the shard-count field of a v3 dump (structural
// validation, not a design limit).
const maxDumpShards = 1 << 12

// minEntrySize is the smallest possible encoded dump entry: three
// zero-length strings and a zero-length key (one varint byte each), the
// KVNO and lifetime bytes, and the two eight-byte timestamps.
const minEntrySize = 22

// ErrBadDump reports a dump that failed structural validation.
var ErrBadDump = errors.New("kdb: malformed database dump")

// DumpMeta is the propagation metadata a v2 dump carries.
type DumpMeta struct {
	Serial uint64 // monotonic change serial at dump time
	Digest uint64 // rolling content digest at dump time
}

func appendString(buf []byte, s string) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(s)))
	return append(buf, s...)
}

func appendBytes(buf, b []byte) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(b)))
	return append(buf, b...)
}

type dumpReader struct {
	data []byte
	err  error
}

func (r *dumpReader) bytes() []byte {
	if r.err != nil {
		return nil
	}
	n, used := binary.Uvarint(r.data)
	if used <= 0 || n > 1<<20 || uint64(len(r.data)-used) < n {
		r.err = ErrBadDump
		return nil
	}
	b := r.data[used : used+int(n)]
	r.data = r.data[used+int(n):]
	return b
}

func (r *dumpReader) str() string { return string(r.bytes()) }

func (r *dumpReader) u64() uint64 {
	if r.err != nil || len(r.data) < 8 {
		r.err = ErrBadDump
		return 0
	}
	v := binary.BigEndian.Uint64(r.data)
	r.data = r.data[8:]
	return v
}

func (r *dumpReader) u8() uint8 {
	if r.err != nil || len(r.data) < 1 {
		r.err = ErrBadDump
		return 0
	}
	v := r.data[0]
	r.data = r.data[1:]
	return v
}

// appendEntryBody serializes the fields that follow an entry's name and
// instance — shared between full dumps and journal changes so the two
// planes cannot drift apart.
func appendEntryBody(buf []byte, e *Entry) []byte {
	buf = appendBytes(buf, e.EncKey)
	buf = append(buf, e.KVNO)
	buf = binary.BigEndian.AppendUint64(buf, uint64(e.Expiration.Unix()))
	buf = append(buf, byte(e.MaxLife))
	buf = binary.BigEndian.AppendUint64(buf, uint64(e.ModTime.Unix()))
	return appendString(buf, e.ModBy)
}

// readEntryBody is the inverse of appendEntryBody.
func readEntryBody(r *dumpReader, e *Entry) {
	e.EncKey = append([]byte(nil), r.bytes()...)
	e.KVNO = r.u8()
	e.Expiration = time.Unix(int64(r.u64()), 0).UTC()
	e.MaxLife = core.Lifetime(r.u8())
	e.ModTime = time.Unix(int64(r.u64()), 0).UTC()
	e.ModBy = r.str()
}

// Dump serializes the entire database deterministically, including its
// propagation metadata. Keys stay sealed in the master key. A
// single-shard database emits the v2 format (byte-compatible with every
// earlier release); a sharded one emits v3 with the per-shard metadata
// vector. All shard write locks are held during the snapshot so the
// entries and every shard's (serial, digest) are one consistent cut.
func (db *Database) Dump() []byte {
	for _, sh := range db.shards {
		sh.wmu.Lock()
	}
	metas := make([]DumpMeta, len(db.shards))
	for i, sh := range db.shards {
		metas[i] = DumpMeta{Serial: sh.serial.Load(), Digest: sh.digest.Load()}
	}
	entries := make([]*Entry, 0, db.Len())
	collect := func(e *Entry) bool {
		entries = append(entries, e)
		return true
	}
	if len(db.shards) == 1 {
		db.shards[0].store.Range(collect)
	} else {
		rangeMerged(db.stores(), collect)
	}
	for _, sh := range db.shards {
		sh.wmu.Unlock()
	}
	if len(db.shards) == 1 {
		return EncodeEntriesAt(entries, metas[0])
	}
	return encodeEntriesV3(entries, metas)
}

// DumpShard serializes shard i alone, in the v2 format, under its own
// write lock — the unit the sharded propagation plane ships in parallel.
func (db *Database) DumpShard(i int) []byte {
	sh := db.shards[i]
	sh.wmu.Lock()
	meta := DumpMeta{Serial: sh.serial.Load(), Digest: sh.digest.Load()}
	entries := make([]*Entry, 0, sh.store.Len())
	sh.store.Range(func(e *Entry) bool {
		entries = append(entries, e)
		return true
	})
	sh.wmu.Unlock()
	return EncodeEntriesAt(entries, meta)
}

// encodeEntriesV3 serializes a sharded dump: magic, shard-meta vector,
// then the entry list in the shared layout.
func encodeEntriesV3(entries []*Entry, metas []DumpMeta) []byte {
	buf := append([]byte(nil), dumpMagicV3[:]...)
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(metas)))
	for _, m := range metas {
		buf = binary.BigEndian.AppendUint64(buf, m.Serial)
		buf = binary.BigEndian.AppendUint64(buf, m.Digest)
	}
	buf = binary.BigEndian.AppendUint32(buf, uint32(len(entries)))
	for _, e := range entries {
		buf = appendString(buf, e.Name)
		buf = appendString(buf, e.Instance)
		buf = appendEntryBody(buf, e)
	}
	return buf
}

// ParseDump decodes a dump into entries without installing them.
func ParseDump(dump []byte) ([]*Entry, error) {
	entries, _, err := ParseDumpFull(dump)
	return entries, err
}

// ParseDumpFull decodes a dump and its propagation metadata (zero for a
// v1 dump; for a v3 dump the shard metas aggregate the same way the
// Database does — serials sum, digests XOR-fold).
func ParseDumpFull(dump []byte) ([]*Entry, DumpMeta, error) {
	entries, metas, err := ParseDumpSharded(dump)
	if err != nil {
		return nil, DumpMeta{}, err
	}
	var meta DumpMeta
	if len(metas) == 1 {
		meta = metas[0]
	} else {
		for _, m := range metas {
			meta.Serial += m.Serial
			meta.Digest ^= m.Digest
		}
	}
	return entries, meta, nil
}

// ParseDumpSharded decodes a dump and its per-shard propagation metadata
// (a single meta for v1/v2 dumps).
func ParseDumpSharded(dump []byte) ([]*Entry, []DumpMeta, error) {
	if len(dump) < 8 {
		return nil, nil, ErrBadDump
	}
	body := dump[4:]
	var metas []DumpMeta
	switch [4]byte(dump[:4]) {
	case dumpMagic:
		metas = []DumpMeta{{}}
	case dumpMagicV2:
		if len(body) < 16 {
			return nil, nil, ErrBadDump
		}
		metas = []DumpMeta{{
			Serial: binary.BigEndian.Uint64(body),
			Digest: binary.BigEndian.Uint64(body[8:]),
		}}
		body = body[16:]
	case dumpMagicV3:
		if len(body) < 4 {
			return nil, nil, ErrBadDump
		}
		n := binary.BigEndian.Uint32(body)
		body = body[4:]
		if n == 0 || n > maxDumpShards || uint64(len(body)) < 16*uint64(n) {
			return nil, nil, fmt.Errorf("%w: implausible shard count %d", ErrBadDump, n)
		}
		metas = make([]DumpMeta, n)
		for i := range metas {
			metas[i].Serial = binary.BigEndian.Uint64(body)
			metas[i].Digest = binary.BigEndian.Uint64(body[8:])
			body = body[16:]
		}
	default:
		return nil, nil, ErrBadDump
	}
	entries, err := parseEntryList(body)
	if err != nil {
		return nil, nil, err
	}
	return entries, metas, nil
}

// parseEntryList decodes the count-prefixed entry layout every dump
// version shares.
func parseEntryList(body []byte) ([]*Entry, error) {
	if len(body) < 4 {
		return nil, ErrBadDump
	}
	count := binary.BigEndian.Uint32(body)
	// Reject a count the payload cannot hold before pre-allocating for
	// it, so a few hostile bytes cannot reserve gigabytes.
	if uint64(count) > uint64(len(body)-4)/minEntrySize {
		return nil, fmt.Errorf("%w: implausible entry count %d", ErrBadDump, count)
	}
	r := dumpReader{data: body[4:]}
	entries := make([]*Entry, 0, count)
	for i := uint32(0); i < count; i++ {
		e := &Entry{
			Name:     r.str(),
			Instance: r.str(),
		}
		readEntryBody(&r, e)
		if r.err != nil {
			return nil, r.err
		}
		entries = append(entries, e)
	}
	if len(r.data) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadDump, len(r.data))
	}
	return entries, nil
}

// LoadDump atomically replaces the database contents with a dump,
// bypassing the read-only check — this is exactly how a slave's copy is
// refreshed by kpropd (§5.3). When the dump's shard shape matches the
// database's, each shard resumes the dump's (serial, digest) lineage;
// otherwise the contents load but the lineage restarts at zero (slaves
// of a re-sharded master heal with one full resync). The journal
// restarts either way — a full load is a new delta horizon.
//
// Per shard, the store swap carries the reset lineage: a persisting
// store stamps its rewrite with the new metadata, never a stale serial
// next to new entries.
func (db *Database) LoadDump(dump []byte) error {
	entries, metas, err := ParseDumpSharded(dump)
	if err != nil {
		return err
	}
	n := len(db.shards)
	if len(metas) != n {
		metas = make([]DumpMeta, n) // different shard shape: new lineage
	}
	parts := make([][]*Entry, n)
	if n == 1 {
		parts[0] = entries
	} else {
		for _, e := range entries {
			i := ShardIndex(e.Name, e.Instance, n)
			parts[i] = append(parts[i], e)
		}
	}
	for i, sh := range db.shards {
		sh.wmu.Lock()
		sh.resetJournalLocked(metas[i].Serial, metas[i].Digest)
		sh.store.ReplaceAll(parts[i], metas[i])
		sh.wmu.Unlock()
	}
	// No key-cache invalidation needed: the replacement installed fresh
	// entries, and decrypted-key caches ride on the entries themselves.
	return nil
}

// LoadDumpShard replaces shard i alone from a v1/v2 dump (the unit
// DumpShard produces). Every entry must belong to shard i under the
// database's shard shape; a misrouted dump is rejected before anything
// is applied.
func (db *Database) LoadDumpShard(i int, dump []byte) error {
	if len(dump) >= 4 && [4]byte(dump[:4]) == dumpMagicV3 {
		return fmt.Errorf("%w: shard load needs a per-shard (v2) dump", ErrBadDump)
	}
	entries, meta, err := ParseDumpFull(dump)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if ShardIndex(e.Name, e.Instance, len(db.shards)) != i {
			return fmt.Errorf("%w: entry %s does not belong to shard %d", ErrBadDump, e.ID(), i)
		}
	}
	sh := db.shards[i]
	sh.wmu.Lock()
	sh.resetJournalLocked(meta.Serial, meta.Digest)
	sh.store.ReplaceAll(entries, meta)
	sh.wmu.Unlock()
	return nil
}

// DumpChecksum computes the keyed checksum of a dump under the master
// database key: "First kprop sends a checksum of the new database it is
// about to send. The checksum is encrypted in the Kerberos master
// database key, which both the master and slave Kerberos machines
// possess" (§5.3).
func DumpChecksum(masterKey des.Key, dump []byte) uint64 {
	return des.CBCChecksum(masterKey, dump)
}

// WriteFileAtomic writes data to path with the crash-safe
// temp+fsync+rename discipline: a reader (or a restart) sees either the
// old contents or the new, never a torn file.
func WriteFileAtomic(path string, data []byte, mode os.FileMode) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, mode)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// Save writes the dump to path with a 0600 mode, for the master's
// on-disk database and for backups ("would also be wise to maintain
// backups of the Master database", §6.3). The write is atomic and
// fsynced: a crash mid-save leaves the previous database intact.
func (db *Database) Save(path string) error {
	if err := WriteFileAtomic(path, db.Dump(), 0o600); err != nil {
		return fmt.Errorf("kdb: saving database: %w", err)
	}
	return nil
}

// Load reads a previously saved dump from path into the database.
func (db *Database) Load(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return fmt.Errorf("kdb: loading database: %w", err)
	}
	return db.LoadDump(data)
}
