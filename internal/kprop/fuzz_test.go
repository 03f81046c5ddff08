package kprop

import (
	"testing"

	"kerberos/internal/des"
	"kerberos/internal/kdb"
)

// FuzzDelta drives adversarial bytes through every wire decoder and the
// full slave-side delta apply path: no panics, no unbounded allocation
// from hostile length prefixes or deflate bombs, and anything that
// survives decoding must re-encode byte-identically (canonical form).
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
					// Canonical: decoded changes re-encode identically.
					if got := kdb.EncodeChanges(changes); string(got) != string(seg) {
						t.Fatalf("change set not canonical: %d vs %d bytes", len(got), len(seg))
					}
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
			db := kdb.New(des.StringToKey("fuzz", "FUZZ.REALM"))
			db.SetReadOnly(true)
			_ = db.ApplyChangesShard(0, changes, 0)
		}
	})
}

func roundTrip(t *testing.T, reencoded, original []byte) {
	t.Helper()
	if string(reencoded) != string(original) {
		t.Fatalf("decode→encode not byte-identical: %d vs %d bytes", len(reencoded), len(original))
	}
}
