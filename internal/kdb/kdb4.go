package kdb

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"time"
	"unsafe"

	"kerberos/internal/core"
)

// KDB4 is the page-aligned snapshot format the segment-log compactor
// emits as its base. The flat KDB1/2/3 dump formats are decode-heavy:
// loading means parsing varints and allocating five objects per entry,
// which at millions of principals dominates a KDC's cold start (the
// §5.2 replication model has slaves reload from dumps, so realm
// availability is gated on exactly this path). KDB4 instead lays the
// database out so that startup is a map, not a parse:
//
//	page 0            header (magic, counts, lineage, section offsets,
//	                  header CRC)
//	record pages      fixed-width 48-byte records, globally ID-sorted
//	arena pages       raw string/key bytes the records point into
//	index pages       the open-addressing probe table (little-endian
//	                  int32 record indices, -1 empty), precomputed at
//	                  encode time so a load installs it instead of
//	                  rehashing every principal
//	CRC pages         one CRC-32C per data (record/arena/index) page
//
// Every section starts on a snapPage boundary so the file can be
// mmapped and the record table addressed directly. A record holds
// arena offsets and lengths for the entry's four variable fields plus
// its fixed scalars, so materializing an entry is a handful of stores
// into a preallocated slab — the strings alias the arena via
// unsafe.String and the sealed key aliases it directly, so a million-
// principal load performs O(1) allocations, not O(n).
//
// The per-page CRCs exist for the same reason the segment log frames
// records with CRCs: to tell a torn or bit-rotten snapshot from a good
// one before serving it. The checksum is CRC-32C (Castagnoli), which
// Go's hash/crc32 computes with hardware instructions on amd64/arm64 —
// validating the whole file costs far less than decoding it.
//
// Private keys inside a snapshot remain sealed in the master key, the
// same invariant every dump format has kept since §5.3.

// ErrBadSnapshot reports a KDB4 snapshot that failed structural or
// checksum validation. Unlike a torn segment tail (which is truncated
// away), snapshot damage is never recoverable in place: the base is
// written atomically, so a bad page is corruption, and the open
// refuses rather than serve a silently wrong database.
var ErrBadSnapshot = errors.New("kdb: corrupt KDB4 snapshot")

var snapMagic = [4]byte{'K', 'D', 'B', '4'}

const (
	snapVersion   = 1
	snapPage      = 4096
	snapRecSize   = 48
	snapHeaderLen = 88 // bytes of page 0 actually used (incl. CRC)
	maxSnapField  = 1<<16 - 1
)

// hostLittleEndian gates the zero-copy view of the snapshot's index
// section, which is stored little-endian (the native order of every
// platform this serves); a big-endian host decodes a heap copy instead.
var hostLittleEndian = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

var snapCRCTable = crc32.MakeTable(crc32.Castagnoli)

func snapPageAlign(n int) int { return (n + snapPage - 1) / snapPage * snapPage }

// IsKDB4 reports whether data begins with the KDB4 snapshot magic.
func IsKDB4(data []byte) bool {
	return len(data) >= 4 && [4]byte(data[:4]) == snapMagic
}

// EncodeKDB4 serializes entries (which must be ID-sorted; every Range
// and compaction fold already produces that order) into a KDB4
// snapshot carrying the given lineage. Instance and ModBy strings are
// interned in the arena — realms repeat a handful of instances and
// modifiers across millions of principals.
func EncodeKDB4(entries []*Entry, meta DumpMeta) ([]byte, error) {
	recBytes := len(entries) * snapRecSize
	recPad := snapPageAlign(recBytes)

	// First pass: size the arena. Interned (instance/modBy) strings
	// occupy one contiguous region at the front, in first-encounter
	// order; per-entry name and key bytes follow.
	intern := make(map[string]uint32)
	internLen := 0
	internOff := func(s string) {
		if _, ok := intern[s]; !ok {
			intern[s] = uint32(internLen)
			internLen += len(s)
		}
	}
	varLen := 0
	for _, e := range entries {
		if len(e.Name) > maxSnapField || len(e.Instance) > maxSnapField ||
			len(e.EncKey) > maxSnapField || len(e.ModBy) > maxSnapField {
			return nil, fmt.Errorf("%w: field over %d bytes", ErrBadSnapshot, maxSnapField)
		}
		varLen += len(e.Name) + len(e.EncKey)
		internOff(e.Instance)
		internOff(e.ModBy)
	}
	arenaLen := internLen + varLen
	if int64(arenaLen) > int64(^uint32(0)) {
		return nil, fmt.Errorf("%w: arena exceeds 4 GiB", ErrBadSnapshot)
	}
	arenaPad := snapPageAlign(arenaLen)
	idxCount := 0
	if len(entries) > 0 {
		idxCount = 1
		for idxCount < len(entries)*2 {
			idxCount <<= 1
		}
	}
	idxPad := snapPageAlign(idxCount * 4)
	dataPages := (recPad + arenaPad + idxPad) / snapPage
	crcPad := snapPageAlign(dataPages * 4)

	buf := make([]byte, snapPage+recPad+arenaPad+idxPad+crcPad)
	recOff := snapPage
	arenaOff := recOff + recPad
	idxOff := arenaOff + arenaPad
	crcOff := idxOff + idxPad

	// Arena fill. Interned strings land at their reserved offsets; the
	// per-entry name and key bytes follow in record order.
	arena := buf[arenaOff : arenaOff+arenaLen]
	for s, off := range intern {
		copy(arena[off:], s)
	}
	cursor := internLen
	put := func(b []byte) uint32 {
		off := uint32(cursor)
		copy(arena[cursor:], b)
		cursor += len(b)
		return off
	}
	for i, e := range entries {
		rec := buf[recOff+i*snapRecSize:]
		nameOff := put([]byte(e.Name))
		encOff := put(e.EncKey)
		binary.BigEndian.PutUint32(rec[0:4], nameOff)
		binary.BigEndian.PutUint32(rec[4:8], intern[e.Instance])
		binary.BigEndian.PutUint32(rec[8:12], encOff)
		binary.BigEndian.PutUint32(rec[12:16], intern[e.ModBy])
		binary.BigEndian.PutUint16(rec[16:18], uint16(len(e.Name)))
		binary.BigEndian.PutUint16(rec[18:20], uint16(len(e.Instance)))
		binary.BigEndian.PutUint16(rec[20:22], uint16(len(e.EncKey)))
		binary.BigEndian.PutUint16(rec[22:24], uint16(len(e.ModBy)))
		rec[24] = e.KVNO
		rec[25] = byte(e.MaxLife)
		binary.BigEndian.PutUint64(rec[32:40], uint64(e.Expiration.Unix()))
		binary.BigEndian.PutUint64(rec[40:48], uint64(e.ModTime.Unix()))
	}

	// Probe table: the same open addressing EpochStore uses at runtime
	// (hashPair, linear probing, load factor <= 0.5), precomputed here
	// so the loader installs it rather than rehashing every principal.
	if idxCount > 0 {
		idx := buf[idxOff : idxOff+idxCount*4]
		for i := range idx {
			idx[i] = 0xff // every slot -1 (empty)
		}
		mask := uint64(idxCount - 1)
		for j, e := range entries {
			h := hashPair(e.Name, e.Instance)
			for i := h & mask; ; i = (i + 1) & mask {
				if int32(binary.LittleEndian.Uint32(idx[i*4:])) < 0 {
					binary.LittleEndian.PutUint32(idx[i*4:], uint32(j))
					break
				}
			}
		}
	}

	// CRC table over the data pages, then the header.
	for p := 0; p < dataPages; p++ {
		page := buf[recOff+p*snapPage : recOff+(p+1)*snapPage]
		binary.BigEndian.PutUint32(buf[crcOff+p*4:], crc32.Checksum(page, snapCRCTable))
	}
	copy(buf[0:4], snapMagic[:])
	binary.BigEndian.PutUint32(buf[4:8], snapVersion)
	binary.BigEndian.PutUint32(buf[8:12], snapPage)
	binary.BigEndian.PutUint32(buf[12:16], uint32(len(entries)))
	binary.BigEndian.PutUint64(buf[16:24], meta.Serial)
	binary.BigEndian.PutUint64(buf[24:32], meta.Digest)
	binary.BigEndian.PutUint64(buf[32:40], uint64(recOff))
	binary.BigEndian.PutUint64(buf[40:48], uint64(arenaOff))
	binary.BigEndian.PutUint64(buf[48:56], uint64(arenaLen))
	binary.BigEndian.PutUint64(buf[56:64], uint64(crcOff))
	binary.BigEndian.PutUint32(buf[64:68], uint32(dataPages))
	binary.BigEndian.PutUint64(buf[68:76], uint64(idxOff))
	binary.BigEndian.PutUint64(buf[76:84], uint64(idxCount))
	binary.BigEndian.PutUint32(buf[84:88], crc32.Checksum(buf[0:84], snapCRCTable))
	return buf, nil
}

// readFallback loads the file into a heap buffer when mmap is
// unavailable; the returned unmap just drops the reference.
func readFallback(f *os.File, size int64) (data []byte, unmap func() error, mapped bool, err error) {
	buf := make([]byte, size)
	if _, err := f.ReadAt(buf, 0); err != nil {
		return nil, nil, false, err
	}
	return buf, func() error { return nil }, false, nil
}

// Snapshot is an open KDB4 snapshot: a validated, possibly mmapped
// byte range plus the section slices Materialize reads. Entries
// materialized from a Snapshot alias its memory; the Snapshot must not
// be closed while they are referenced.
type Snapshot struct {
	data   []byte
	unmap  func() error
	mapped bool
	meta   DumpMeta
	count  int
	recs   []byte
	arena  []byte
	idx    []byte
}

// Meta returns the lineage the snapshot was written at.
func (sn *Snapshot) Meta() DumpMeta { return sn.meta }

// Count returns the number of records.
func (sn *Snapshot) Count() int { return sn.count }

// Mapped reports whether the snapshot is backed by an mmap (false on
// the portable ReadAt fallback).
func (sn *Snapshot) Mapped() bool { return sn.mapped }

// Bytes returns the size of the backing range (mapped or resident).
func (sn *Snapshot) Bytes() int64 { return int64(len(sn.data)) }

// Close releases the backing mapping. Entries materialized from the
// snapshot become invalid; callers must not use them afterwards.
func (sn *Snapshot) Close() error {
	if sn.unmap != nil {
		u := sn.unmap
		sn.unmap = nil
		sn.data, sn.recs, sn.arena, sn.idx = nil, nil, nil, nil
		return u()
	}
	return nil
}

// OpenKDB4 opens and validates a snapshot file, mmapping it on
// platforms that support it and falling back to reading it into a
// heap arena elsewhere.
func OpenKDB4(path string) (*Snapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	data, unmap, mapped, err := mapFile(f, fi.Size())
	if err != nil {
		return nil, fmt.Errorf("kdb: mapping %s: %w", path, err)
	}
	sn, err := parseKDB4(data)
	if err != nil {
		unmap()
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	sn.unmap, sn.mapped = unmap, mapped
	return sn, nil
}

// readKDB4Meta reads the lineage from a snapshot's header alone,
// checked by the header CRC; the data pages are not read.
func readKDB4Meta(path string) (DumpMeta, error) {
	f, err := os.Open(path)
	if err != nil {
		return DumpMeta{}, err
	}
	defer f.Close()
	var hdr [snapHeaderLen]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return DumpMeta{}, err
	}
	//kerb:ignore consttime -- CRC-32 detects torn disk writes, not forgery; nothing here is keyed
	if !IsKDB4(hdr[:]) || crc32.Checksum(hdr[0:84], snapCRCTable) != binary.BigEndian.Uint32(hdr[84:88]) {
		return DumpMeta{}, ErrBadSnapshot
	}
	return DumpMeta{
		Serial: binary.BigEndian.Uint64(hdr[16:24]),
		Digest: binary.BigEndian.Uint64(hdr[24:32]),
	}, nil
}

// ParseKDB4 validates a snapshot held in memory (compaction folds and
// tests; OpenKDB4 is the mmap path).
func ParseKDB4(data []byte) (*Snapshot, error) { return parseKDB4(data) }

func parseKDB4(data []byte) (*Snapshot, error) {
	if len(data) < snapPage || !IsKDB4(data) {
		return nil, ErrBadSnapshot
	}
	//kerb:ignore consttime -- CRC-32 detects torn disk writes, not forgery; nothing here is keyed
	if crc32.Checksum(data[0:84], snapCRCTable) != binary.BigEndian.Uint32(data[84:88]) {
		return nil, fmt.Errorf("%w: header checksum", ErrBadSnapshot)
	}
	if binary.BigEndian.Uint32(data[4:8]) != snapVersion ||
		binary.BigEndian.Uint32(data[8:12]) != snapPage {
		return nil, fmt.Errorf("%w: unknown version or page size", ErrBadSnapshot)
	}
	count := int(binary.BigEndian.Uint32(data[12:16]))
	meta := DumpMeta{
		Serial: binary.BigEndian.Uint64(data[16:24]),
		Digest: binary.BigEndian.Uint64(data[24:32]),
	}
	recOff := int64(binary.BigEndian.Uint64(data[32:40]))
	arenaOff := int64(binary.BigEndian.Uint64(data[40:48]))
	arenaLen := int64(binary.BigEndian.Uint64(data[48:56]))
	crcOff := int64(binary.BigEndian.Uint64(data[56:64]))
	dataPages := int64(binary.BigEndian.Uint32(data[64:68]))
	idxOff := int64(binary.BigEndian.Uint64(data[68:76]))
	idxCount := int64(binary.BigEndian.Uint64(data[76:84]))
	size := int64(len(data))
	switch {
	case recOff != snapPage,
		arenaOff != recOff+int64(snapPageAlign(count*snapRecSize)),
		arenaLen < 0 || arenaOff+arenaLen > idxOff,
		idxOff != arenaOff+int64(snapPageAlign(int(arenaLen))),
		idxCount < 0 || idxCount > int64(^uint32(0)),
		count > 0 && (idxCount < int64(count)*2 || idxCount&(idxCount-1) != 0),
		count == 0 && idxCount != 0,
		crcOff != idxOff+int64(snapPageAlign(int(idxCount*4))),
		dataPages != (crcOff-recOff)/snapPage,
		crcOff+int64(snapPageAlign(int(dataPages*4))) > size:
		return nil, fmt.Errorf("%w: section layout", ErrBadSnapshot)
	}
	for p := int64(0); p < dataPages; p++ {
		page := data[recOff+p*snapPage : recOff+(p+1)*snapPage]
		want := binary.BigEndian.Uint32(data[crcOff+p*4:])
		//kerb:ignore consttime -- CRC-32 detects torn disk writes, not forgery; nothing here is keyed
		if crc32.Checksum(page, snapCRCTable) != want {
			return nil, fmt.Errorf("%w: page %d checksum", ErrBadSnapshot, p)
		}
	}
	// Validate every record's arena references up front, so the lazy
	// decode paths (snapSlab, decodeRecord) can run unchecked: after
	// this pass a record can only be wrong if the CRCs above lied.
	recs := data[recOff : recOff+int64(count)*snapRecSize]
	aLen := uint32(arenaLen)
	for i := 0; i < count; i++ {
		rec := recs[i*snapRecSize : (i+1)*snapRecSize]
		nameOff := binary.BigEndian.Uint32(rec[0:4])
		instOff := binary.BigEndian.Uint32(rec[4:8])
		encOff := binary.BigEndian.Uint32(rec[8:12])
		modByOff := binary.BigEndian.Uint32(rec[12:16])
		nameLen := uint32(binary.BigEndian.Uint16(rec[16:18]))
		instLen := uint32(binary.BigEndian.Uint16(rec[18:20]))
		encLen := uint32(binary.BigEndian.Uint16(rec[20:22]))
		modByLen := uint32(binary.BigEndian.Uint16(rec[22:24]))
		if (nameLen > 0 && (nameLen > aLen || nameOff > aLen-nameLen)) ||
			(instLen > 0 && (instLen > aLen || instOff > aLen-instLen)) ||
			(encLen > 0 && (encLen > aLen || encOff > aLen-encLen)) ||
			(modByLen > 0 && (modByLen > aLen || modByOff > aLen-modByLen)) {
			return nil, fmt.Errorf("%w: record %d points outside arena", ErrBadSnapshot, i)
		}
	}
	return &Snapshot{
		data:  data,
		meta:  meta,
		count: count,
		recs:  data[recOff : recOff+int64(count*snapRecSize)],
		arena: data[arenaOff : arenaOff+arenaLen],
		idx:   data[idxOff : idxOff+idxCount*4],
	}, nil
}

// Index returns the snapshot's precomputed probe table (int32 record
// indices, negative empty), zero-copy on little-endian hosts: the returned
// slice aliases the snapshot like materialized entries do, and is
// invalid after Close. Returns nil for an empty snapshot.
func (sn *Snapshot) Index() ([]int32, error) {
	n := len(sn.idx) / 4
	if n == 0 {
		return nil, nil
	}
	var table []int32
	if hostLittleEndian && uintptr(unsafe.Pointer(&sn.idx[0]))%4 == 0 {
		table = unsafe.Slice((*int32)(unsafe.Pointer(&sn.idx[0])), n)
	} else {
		table = make([]int32, n)
		for i := range table {
			table[i] = int32(binary.LittleEndian.Uint32(sn.idx[i*4:]))
		}
	}
	// No more slots filled than there are records: with at least twice
	// as many slots as records, half the table then stays empty, so every
	// probe sequence meets an empty slot. A full table would spin lookups
	// of a missing principal forever.
	filled := 0
	for _, v := range table {
		if int(v) >= sn.count {
			return nil, fmt.Errorf("%w: index slot out of range", ErrBadSnapshot)
		}
		if v >= 0 {
			filled++
		}
	}
	if filled > sn.count {
		return nil, fmt.Errorf("%w: index fills %d slots for %d records", ErrBadSnapshot, filled, sn.count)
	}
	return table, nil
}

// nameInstAt returns record j's name and instance as zero-copy views
// into the arena (valid until Close). Offsets were validated at parse.
func (sn *Snapshot) nameInstAt(j int) (name, instance string) {
	rec := sn.recs[j*snapRecSize : (j+1)*snapRecSize]
	if n := int(binary.BigEndian.Uint16(rec[16:18])); n > 0 {
		off := binary.BigEndian.Uint32(rec[0:4])
		name = unsafe.String(&sn.arena[off], n)
	}
	if n := int(binary.BigEndian.Uint16(rec[18:20])); n > 0 {
		off := binary.BigEndian.Uint32(rec[4:8])
		instance = unsafe.String(&sn.arena[off], n)
	}
	return name, instance
}

// decodeRecord materializes record j into e. Strings and the sealed
// key alias the arena; offsets were validated at parse so this runs
// unchecked. The caller owns e (typically a stack or slab slot).
func (sn *Snapshot) decodeRecord(j int, e *Entry) {
	rec := sn.recs[j*snapRecSize : (j+1)*snapRecSize]
	e.Name, e.Instance = sn.nameInstAt(j)
	if n := int(binary.BigEndian.Uint16(rec[22:24])); n > 0 {
		off := binary.BigEndian.Uint32(rec[12:16])
		e.ModBy = unsafe.String(&sn.arena[off], n)
	} else {
		e.ModBy = ""
	}
	if n := uint32(binary.BigEndian.Uint16(rec[20:22])); n > 0 {
		off := binary.BigEndian.Uint32(rec[8:12])
		e.EncKey = sn.arena[off : off+n : off+n]
	} else {
		e.EncKey = nil
	}
	e.KVNO = rec[24]
	e.MaxLife = core.Lifetime(rec[25])
	e.Expiration = time.Unix(int64(binary.BigEndian.Uint64(rec[32:40])), 0).UTC()
	e.ModTime = time.Unix(int64(binary.BigEndian.Uint64(rec[40:48])), 0).UTC()
}

// Materialize builds the entry slab: one []Entry allocation whose
// strings and sealed keys alias the snapshot's arena. The slab is in
// the snapshot's record order (ID-sorted by construction).
func (sn *Snapshot) Materialize() ([]Entry, error) {
	slab := make([]Entry, sn.count)
	for i := range slab {
		sn.decodeRecord(i, &slab[i])
	}
	return slab, nil
}

// MaterializePtrs is Materialize for callers that want []*Entry (the
// compaction fold); the pointers index one shared slab.
func (sn *Snapshot) MaterializePtrs() ([]*Entry, error) {
	slab, err := sn.Materialize()
	if err != nil {
		return nil, err
	}
	out := make([]*Entry, len(slab))
	for i := range slab {
		out[i] = &slab[i]
	}
	return out, nil
}
