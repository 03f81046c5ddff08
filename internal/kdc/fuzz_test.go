package kdc

import (
	"encoding/binary"
	"testing"
	"time"

	"kerberos/internal/core"
)

// splitDatagrams cuts fuzz input into 1..maxUDPBatch datagrams: a run
// of records, each a 2-byte big-endian length and that many bytes, and
// whatever does not form a whole record as the last datagram.
func splitDatagrams(data []byte) [][]byte {
	var out [][]byte
	for len(out) < maxUDPBatch-1 && len(data) >= 2 {
		n := int(binary.BigEndian.Uint16(data))
		if n > len(data)-2 {
			break
		}
		out = append(out, data[2:2+n])
		data = data[2+n:]
	}
	if len(data) > 0 || len(out) == 0 {
		out = append(out, data)
	}
	return out
}

// joinDatagrams is the inverse of splitDatagrams, for seeds.
func joinDatagrams(msgs ...[]byte) []byte {
	var out []byte
	for _, m := range msgs {
		out = binary.BigEndian.AppendUint16(out, uint16(len(m)))
		out = append(out, m...)
	}
	return out
}

// FuzzHandleBatch drives the request pipeline with bursts of arbitrary
// datagrams, seeded with valid AS and TGS requests (alone, mixed with
// garbage, duplicated, and 48 lanes wide). Every lane must get a reply
// a client would accept as a KDC message, and no input may panic the
// server.
func FuzzHandleBatch(f *testing.F) {
	r := newRealm(f, testRealm)
	tgs := core.TGSPrincipal(testRealm, testRealm)
	svc := core.Principal{Name: "rlogin", Instance: "priam", Realm: testRealm}
	tgt := r.asExchange(f, tgs, core.DefaultTGTLife)
	as := r.asReqBytes("jis", svc)
	tgsReq := r.tgsReqBytes(tgt, svc, t0)
	wide := make([][]byte, 48)
	for i := range wide {
		wide[i] = r.tgsReqBytes(tgt, svc, t0.Add(time.Duration(i+1)*time.Microsecond))
	}
	f.Add([]byte{})
	f.Add(as)
	f.Add(joinDatagrams(as))
	f.Add(joinDatagrams(tgsReq))
	f.Add(joinDatagrams(as, tgsReq, []byte{0xde, 0xad}, tgsReq, r.asReqBytes("nosuch", svc)))
	f.Add(joinDatagrams(wide...))

	f.Fuzz(func(t *testing.T, data []byte) {
		msgs := splitDatagrams(data)
		batch := make([]BatchRequest, len(msgs))
		for i, m := range msgs {
			batch[i] = BatchRequest{Msg: m, From: wsAddr}
		}
		r.server.HandleBatch(batch)
		for i := range batch {
			if !validKDCReply(batch[i].Reply) {
				t.Fatalf("lane %d of %d: reply %x is not a KDC message", i, len(batch), batch[i].Reply)
			}
		}
	})
}
