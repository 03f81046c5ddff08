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
// A dump is one shard's entries (KDB2), prefixed with the propagation
// metadata the incremental plane needs — the shard's serial and rolling
// digest — so a slave resumes the same lineage instead of forcing a full
// resync. It is the one full-copy format on the kprop wire, and the
// format of a pre-KDB4 base.kdb (which is how an old principal file is
// imported). KDB1 dumps (no metadata) still load, at serial 0.
var (
	dumpMagic   = [4]byte{'K', 'D', 'B', '1'}
	dumpMagicV2 = [4]byte{'K', 'D', 'B', '2'}
)

// minEntrySize is the smallest possible encoded dump entry: three
// zero-length strings and a zero-length key (one varint byte each), the
// KVNO and lifetime bytes, and the two eight-byte timestamps.
const minEntrySize = 22

// ErrBadDump reports a dump that failed structural validation.
var ErrBadDump = errors.New("kdb: malformed database dump")

// DumpMeta is the propagation metadata a dump carries.
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

// DumpShard serializes shard i under its own write lock, so the entries
// and the shard's (serial, digest) are one consistent cut — the unit
// propagation ships.
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

// EncodeEntriesAt serializes entries in the dump format (KDB2),
// carrying the propagation serial and digest. Output follows input
// order; Range already sorts.
func EncodeEntriesAt(entries []*Entry, meta DumpMeta) []byte {
	buf := append([]byte(nil), dumpMagicV2[:]...)
	buf = binary.BigEndian.AppendUint64(buf, meta.Serial)
	buf = binary.BigEndian.AppendUint64(buf, meta.Digest)
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
// v1 dump, which an old principal file may still hold).
func ParseDumpFull(dump []byte) ([]*Entry, DumpMeta, error) {
	if len(dump) < 8 {
		return nil, DumpMeta{}, ErrBadDump
	}
	body := dump[4:]
	var meta DumpMeta
	switch [4]byte(dump[:4]) {
	case dumpMagic:
	case dumpMagicV2:
		if len(body) < 16 {
			return nil, DumpMeta{}, ErrBadDump
		}
		meta = DumpMeta{
			Serial: binary.BigEndian.Uint64(body),
			Digest: binary.BigEndian.Uint64(body[8:]),
		}
		body = body[16:]
	default:
		return nil, DumpMeta{}, ErrBadDump
	}
	entries, err := parseEntryList(body)
	if err != nil {
		return nil, DumpMeta{}, err
	}
	return entries, meta, nil
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

// LoadDumpShard replaces shard i alone from a dump (the unit DumpShard
// produces). Every entry must belong to shard i under the database's
// shard shape; a misrouted dump is rejected before anything is applied.
// The store swap carries the new lineage, and the journal restarts at it
// only once the store has taken the contents: a store that fails (a
// disk error) leaves contents, lineage and journal as they were.
func (db *Database) LoadDumpShard(i int, dump []byte) error {
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
	defer sh.wmu.Unlock()
	err = sh.store.ReplaceAll(entries, meta)
	sh.hot.retireAll()
	if err != nil {
		return err
	}
	sh.resetJournalLocked(meta, nil)
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
