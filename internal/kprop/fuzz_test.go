package kprop

import (
	"bytes"
	"encoding/binary"
	"hash/fnv"
	"testing"

	"kerberos/internal/des"
	"kerberos/internal/kdb"
)

// FuzzDelta drives adversarial bytes through every wire decoder and the
// full slave-side delta apply path: no panics, no unbounded allocation
// from hostile length prefixes or deflate bombs, and anything that
// survives decoding must re-encode byte-identically. A change set that
// decodes is one a master could have sent: its records frame back to
// the payload byte for byte, and a master that journals them chains its
// digests over exactly those bytes.
func FuzzDelta(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("KPv2"))
	f.Add(MasterHello{Version: wireVersion, Serial: 1, Digest: 2, Shards: 1}.Encode())
	f.Add(MasterHello{Version: wireVersion, Serial: 1, Digest: 2, Shard: 3, Shards: 8}.Encode())
	f.Add(AckMsg{Serial: 9, NeedFull: true, Err: "gap"}.Encode())
	// A hostile count prefix on a tiny change set: DecodeChanges must
	// reject it before pre-allocating count slots (amplification guard).
	f.Add(append([]byte{'K', 'C', 'H', '1', 0xff, 0xff, 0xff, 0xff}, make([]byte, 32)...))
	f.Fuzz(func(t *testing.T, data []byte) {
		if h, err := DecodeMasterHello(data); err == nil {
			roundTrip(t, h.Encode(), data)
		}
		if h, err := DecodeSlaveHello(data); err == nil {
			roundTrip(t, h.Encode(), data)
		}
		if d, err := DecodeDeltaMsg(data); err == nil {
			roundTrip(t, d.Encode(), data)
			if seg, err := inflate(d.Payload); err == nil {
				if changes, err := kdb.DecodeChanges(seg); err == nil {
					changeSetRoundTrip(t, seg, changes)
				}
			}
		}
		if fd, err := DecodeFullDumpMsg(data); err == nil {
			roundTrip(t, fd.Encode(), data)
			if dump, err := inflate(fd.Payload); err == nil {
				_, _, _ = kdb.ParseDumpFull(dump)
			}
		}
		if a, err := DecodeAckMsg(data); err == nil {
			roundTrip(t, a.Encode(), data)
		}
		// The raw change-set decoder sees uncompressed attacker bytes
		// when a hostile master controls the payload.
		if changes, err := kdb.DecodeChanges(data); err == nil {
			db := kdb.New(fuzzMasterKey)
			db.SetReadOnly(true)
			_ = db.ApplyChangesShard(0, changes, 0)
			changeSetRoundTrip(t, data, changes)
		}
	})
}

var fuzzMasterKey = des.StringToKey("fuzz", "FUZZ.REALM")

// changeSetRoundTrip checks a change set that decoded from seg. The
// decoded records' encodings, framed, are seg. A sender that journals
// them (a shard at the serial before the first, applying them) serves
// them back as seg, with the digests of an FNV-1a chain over the
// records' bytes computed here.
func changeSetRoundTrip(t *testing.T, seg []byte, changes []kdb.Change) {
	t.Helper()
	recs := make([]kdb.LogRec, len(changes))
	for i, c := range changes {
		recs[i] = c.LogRec
	}
	if got := kdb.EncodeChanges(recs); !bytes.Equal(got, seg) {
		t.Fatalf("change set does not frame back: %d vs %d bytes", len(got), len(seg))
	}
	if len(changes) == 0 || changes[0].Serial == 0 {
		return
	}
	from := kdb.DumpMeta{Serial: changes[0].Serial - 1, Digest: 0x5eed}
	sender := kdb.New(fuzzMasterKey)
	if err := sender.LoadDumpShard(0, kdb.EncodeEntriesAt(nil, from)); err != nil {
		t.Fatal(err)
	}
	if err := sender.ApplyChangesShard(0, changes, 0); err != nil {
		t.Fatalf("sender refused a decoded change set: %v", err)
	}
	sent, v := sender.ChangesSinceShard(0, from.Serial, from.Digest)
	if v != kdb.DeltaOK || !bytes.Equal(kdb.EncodeChanges(sent), seg) {
		t.Fatalf("sender serves %d records (%v), not the payload", len(sent), v)
	}
	digest := from.Digest
	for i, rec := range sent {
		h := fnv.New64a()
		h.Write(binary.BigEndian.AppendUint64(nil, digest))
		h.Write(changes[i].Enc)
		digest = h.Sum64()
		if rec.Serial != changes[i].Serial || rec.Digest != digest {
			t.Fatalf("record %d: sender at (%d, %x), chain at (%d, %x)",
				i, rec.Serial, rec.Digest, changes[i].Serial, digest)
		}
	}
}

func roundTrip(t *testing.T, reencoded, original []byte) {
	t.Helper()
	if string(reencoded) != string(original) {
		t.Fatalf("decode→encode not byte-identical: %d vs %d bytes", len(reencoded), len(original))
	}
}
