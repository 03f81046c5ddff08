package kdc

import (
	"encoding/binary"

	"kerberos/internal/core"
	"kerberos/internal/des"
	"kerberos/internal/replay"
)

// tgsMemo is how a TGS reply was built: the inputs of phases B–D that a
// byte-identical retransmission cannot recover from its own bytes. The
// client and service names, the request time and the TGT session key
// the reply is sealed under all come from the retransmitted request
// itself; PCBC with the key as IV, the quad checksum and the encoders
// are deterministic; so a reply rebuilt from the memo is the original
// reply byte for byte.
//
// The new session key is kept only as one DES block encrypted under the
// TGT session key, which only the retransmitted request can supply: the
// replay cache never holds a usable key.
type tgsMemo struct {
	sealedKey [des.KeySize]byte // the new session key, encrypted
	issued    core.KerberosTime // ticket and reply issue time
	addr      core.Addr         // the address the ticket is bound to
	life      core.Lifetime     // the granted lifetime
	kvno      uint8             // the service key version that sealed the ticket
}

// pack lays the memo out in a replay.Memo:
//
//	[0:8]   sealed session key
//	[8:12]  issue time, big-endian
//	[12:16] ticket address
//	[16]    lifetime
//	[17]    service key version
func (m *tgsMemo) pack() replay.Memo {
	var b replay.Memo
	copy(b[0:8], m.sealedKey[:])
	binary.BigEndian.PutUint32(b[8:12], uint32(m.issued))
	copy(b[12:16], m.addr[:])
	b[16] = byte(m.life)
	b[17] = m.kvno
	return b
}

// unpackMemo reverses pack.
func unpackMemo(b replay.Memo) tgsMemo {
	var m tgsMemo
	copy(m.sealedKey[:], b[0:8])
	m.issued = core.KerberosTime(binary.BigEndian.Uint32(b[8:12]))
	copy(m.addr[:], b[12:16])
	m.life = core.Lifetime(b[16])
	m.kvno = b[17]
	return m
}
