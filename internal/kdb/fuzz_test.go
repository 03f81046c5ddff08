package kdb

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"kerberos/internal/des"
)

// FuzzParseDump feeds arbitrary bytes to the dump decoder every
// propagation path shares (kpropd's full install, the flat-base
// import). It must never panic, and a dump it accepts must load into a
// one-shard database as it parsed.
func FuzzParseDump(f *testing.F) {
	entries := kdb4TestEntries(5)
	v2 := EncodeEntriesAt(entries, DumpMeta{Serial: 5, Digest: 0xd1})
	f.Add(append(append([]byte(nil), dumpMagic[:]...), v2[4+16:]...)) // v1: no metadata
	f.Add(v2)
	f.Add(EncodeEntriesAt(nil, DumpMeta{}))
	f.Add(EncodeEntriesAt(entries[:1], DumpMeta{Serial: 1<<64 - 1, Digest: 2}))
	master := des.StringToKey("master-password", "ATHENA.MIT.EDU")
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, meta, err := ParseDumpFull(data)
		if err != nil {
			return
		}
		db := New(master)
		if err := db.LoadDumpShard(0, data); err != nil {
			t.Fatalf("load of an accepted dump: %v", err)
		}
		if db.ShardSerial(0) != meta.Serial || db.ShardDigest(0) != meta.Digest {
			t.Fatalf("lineage (%d, %x), dump says %+v", db.ShardSerial(0), db.ShardDigest(0), meta)
		}
		if db.Len() > len(entries) {
			t.Fatalf("Len %d from %d parsed entries", db.Len(), len(entries))
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
		var e Entry
		for i := range slab {
			s.Lookup(slab[i].Name, slab[i].Instance, &e)
		}
		s.Lookup("\xffnot-a-principal", "", &e)
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

// FuzzSegmentReplay feeds a damaged two-segment log — torn tails, a
// half-written last record, damage mid-log, records of another lineage
// — to the writer's open and to a follower's, the log now being input
// that crosses processes. Both must refuse damage in the sealed segment
// (ErrBadSegment) or both load the same contents and lineage. The
// writer truncates a torn tail; the follower, which never truncates,
// must see no change from that, and must see what the writer appends
// after it.
//
// The input is the damage, not the log: each segment is a run of one
// lineage's eight records (a run that starts past the other segment's
// end, or before it, holds records of no lineage the base holds), then
// the last segment loses cut bytes from its end and gains the raw tail
// bytes, and patch is XORed into the two at patchAt. The byte arguments
// stay short on purpose: the target makes two opens over real files,
// about a thousand inputs a second, and the fuzzer minimizes every
// input that finds new coverage with a search quadratic in the length
// of each byte argument. Over raw ~330-byte segments one minimization
// outlasts the whole -fuzztime, and the run explores nothing new.
func FuzzSegmentReplay(f *testing.F) {
	src := New(followMaster)
	addN(f, src, 8)
	recs, _ := src.ChangesSinceShard(0, 0, 0)
	var log []byte
	ends := []int{0}
	for _, rec := range recs {
		log = appendLogRecord(log, rec)
		ends = append(ends, len(log))
	}
	run := func(from, to uint8) []byte {
		a, b := int(from)%len(ends), int(to)%len(ends)
		return append([]byte(nil), log[ends[a]:ends[max(a, b)]]...)
	}
	half := append([]byte(nil), log[ends[4]:ends[4]+recHeader+2]...)
	f.Add(uint8(0), uint8(4), uint8(4), uint8(8), uint16(0), uint16(0), []byte{}, []byte{})
	f.Add(uint8(0), uint8(4), uint8(4), uint8(8), uint16(3), uint16(0), []byte{}, []byte{})             // torn tail
	f.Add(uint8(0), uint8(4), uint8(4), uint8(8), uint16(0), uint16(0), []byte{}, half)                 // half-written record
	f.Add(uint8(0), uint8(4), uint8(4), uint8(8), uint16(0), uint16(ends[4]/2), []byte{0x20}, []byte{}) // damage mid-log
	f.Add(uint8(4), uint8(8), uint8(0), uint8(4), uint16(0), uint16(0), []byte{}, []byte{})             // records of no lineage the base holds
	f.Add(uint8(0), uint8(0), uint8(0), uint8(8), uint16(0), uint16(0), []byte{}, []byte{})
	f.Fuzz(func(t *testing.T, sealedFrom, sealedTo, lastFrom, lastTo uint8, cut, patchAt uint16, patch, tail []byte) {
		sealed, last := run(sealedFrom, sealedTo), run(lastFrom, lastTo)
		last = append(last[:len(last)-int(cut)%(len(last)+1)], tail...)
		if n := len(sealed) + len(last); n > 0 {
			for i, b := range patch {
				if j := (int(patchAt) + i) % n; j < len(sealed) {
					sealed[j] ^= b
				} else {
					last[j-len(sealed)] ^= b
				}
			}
		}
		dir := t.TempDir()
		sub := filepath.Join(dir, shardDirName(0))
		if err := os.MkdirAll(sub, 0o700); err != nil {
			t.Fatal(err)
		}
		for seq, data := range [][]byte{sealed, last} {
			if err := os.WriteFile(filepath.Join(sub, segName(uint64(seq+1))), data, 0o600); err != nil {
				t.Fatal(err)
			}
		}
		fdb, fol, ferr := OpenFollower(followMaster, dir)
		wdb, segs, werr := OpenSegmentDB(followMaster, dir, 1, SegmentOptions{NoFsync: true})
		if (ferr == nil) != (werr == nil) {
			t.Fatalf("follower open: %v; writer open: %v", ferr, werr)
		}
		if werr != nil {
			if !errors.Is(werr, ErrBadSegment) || !errors.Is(ferr, ErrBadSegment) {
				t.Fatalf("refusals are not ErrBadSegment: writer %v, follower %v", werr, ferr)
			}
			return
		}
		defer fol.Close()
		defer segs[0].Close()
		sameAs(t, "open", fdb, wdb)
		poll(t, fol)
		sameAs(t, "after the writer's truncation", fdb, wdb)
		if err := wdb.Add("appended", "", des.StringToKey("x", "R"), 0, "fuzz", t0); err == nil {
			poll(t, fol)
			sameAs(t, "after an append", fdb, wdb)
		}
	})
}
