package kdb

import (
	"encoding/binary"
	"hash/crc32"
	"testing"

	"kerberos/internal/des"
)

// FuzzParseDump feeds arbitrary bytes to the dump decoder every
// propagation path shares (kpropd, kprop's file read, kerberosd -db
// reloads, the flat-base import). It must never panic, and a dump it
// accepts must load into a flat and a 3-shard database alike.
func FuzzParseDump(f *testing.F) {
	entries := kdb4TestEntries(5)
	f.Add(EncodeEntries(entries))
	f.Add(EncodeEntriesAt(entries, DumpMeta{Serial: 5, Digest: 0xd1}))
	f.Add(EncodeEntriesAt(nil, DumpMeta{}))
	f.Add(encodeEntriesV3(entries, []DumpMeta{{Serial: 1, Digest: 2}, {Serial: 3, Digest: 4}, {Serial: 5, Digest: 6}}))
	master := des.StringToKey("master-password", "ATHENA.MIT.EDU")
	f.Fuzz(func(t *testing.T, data []byte) {
		if _, _, err := ParseDumpSharded(data); err != nil {
			return
		}
		flat, sharded := New(master), newShardedEpochDB(master, 3)
		if err := flat.LoadDump(data); err != nil {
			t.Fatalf("flat load of an accepted dump: %v", err)
		}
		if err := sharded.LoadDump(data); err != nil {
			t.Fatalf("3-shard load of an accepted dump: %v", err)
		}
		if flat.Len() != sharded.Len() {
			t.Fatalf("Len: flat %d, 3-shard %d", flat.Len(), sharded.Len())
		}
	})
}

// FuzzParseKDB4 feeds mutated snapshots to the KDB4 validator. An
// input picks one of the encoded seed snapshots, truncates cut bytes
// off its end, and applies edits: 3-byte records of a big-endian offset
// and the byte to store there. Inputs stay small however large the
// page-aligned snapshot is. The harness then recomputes the page CRCs
// (where the header locates them) and the header CRC, so edits reach
// the layout and arena checks rather than dying at a checksum. A
// snapshot the validator accepts must survive Index and Materialize,
// and lookups over it must terminate.
func FuzzParseKDB4(f *testing.F) {
	var seeds [][]byte
	for _, n := range []int{0, 1, 7, 40} {
		data, err := EncodeKDB4(kdb4TestEntries(n), DumpMeta{Serial: uint64(n), Digest: 0xd1})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(uint8(len(seeds)), uint16(0), []byte{})
		seeds = append(seeds, data)
	}
	f.Add(uint8(1), uint16(0), []byte{0, 12, 0xff, 0x10, 0x10, 0x01}) // count, first record's name length
	f.Fuzz(func(t *testing.T, which uint8, cut uint16, edits []byte) {
		seed := seeds[int(which)%len(seeds)]
		data := append([]byte(nil), seed[:len(seed)-int(cut)%len(seed)]...)
		for ; len(edits) >= 3; edits = edits[3:] {
			data[int(binary.BigEndian.Uint16(edits))%len(data)] = edits[2]
		}
		fixKDB4CRCs(data)
		sn, err := ParseKDB4(data)
		if err != nil {
			return
		}
		table, err := sn.Index()
		if err != nil {
			return
		}
		slab, err := sn.Materialize()
		if err != nil || len(slab) != sn.Count() {
			t.Fatalf("Materialize: %d of %d entries, %v", len(slab), sn.Count(), err)
		}
		s := NewEpochStore()
		s.installSnapshot(sn, table)
		for i := range slab {
			s.FetchSharedPair(slab[i].Name, slab[i].Instance)
		}
		s.FetchSharedPair("\xffnot-a-principal", "")
		s.Range(func(*Entry) bool { return true })
	})
}

// fixKDB4CRCs rewrites a snapshot's page CRCs (when the header places
// the data pages and CRC table inside data) and then its header CRC.
func fixKDB4CRCs(data []byte) {
	if len(data) < snapPage {
		return
	}
	size := uint64(len(data))
	recOff := binary.BigEndian.Uint64(data[32:40])
	crcOff := binary.BigEndian.Uint64(data[56:64])
	pages := uint64(binary.BigEndian.Uint32(data[64:68]))
	if recOff == snapPage && crcOff <= size && pages <= (size-crcOff)/4 && pages <= (size-recOff)/snapPage {
		for p := uint64(0); p < pages; p++ {
			page := data[recOff+p*snapPage : recOff+(p+1)*snapPage]
			binary.BigEndian.PutUint32(data[crcOff+p*4:], crc32.Checksum(page, snapCRCTable))
		}
	}
	binary.BigEndian.PutUint32(data[84:88], crc32.Checksum(data[0:84], snapCRCTable))
}
