package des

import (
	"crypto/subtle"
	"encoding/binary"
)

// QuadChecksum is the keyed quadratic checksum used by Kerberos safe
// messages (§2.1 "safe messages": "authentication of each message, but do
// not care whether the content of the message is disclosed").
//
// Following the Kerberos v4 quad_cksum design, the data is processed as a
// sequence of 32-bit little-endian words through a quadratic congruential
// hash modulo the Mersenne prime 2³¹−1, seeded from the session key so
// that only the two key holders can produce or verify it. The result is a
// 32-bit checksum.
func QuadChecksum(key Key, data []byte) uint32 {
	seed := binary.LittleEndian.Uint64(key[:])
	z := seed & prime
	z2 := (seed >> 32) & prime
	// Each step is x = (z + w) mod p, z = (x² + z2²) mod p, z2 = x, so
	// one step's x² is the next step's z2²: sq carries it, folded below
	// 2³² but not fully reduced, and each step squares once.
	sq := fold(z2 * z2)

	// Process whole 4-byte words with direct loads; the short trailing
	// word, if any, is zero-extended byte by byte.
	n := len(data) &^ 3
	for i := 0; i < n; i += 4 {
		x := reduce(fold(z + uint64(binary.LittleEndian.Uint32(data[i:]))))
		xx := fold(x * x)
		z = reduce(fold(xx + sq))
		sq = xx
	}
	if n < len(data) {
		var w uint32
		for j, b := range data[n:] {
			w |= uint32(b) << uint(8*j)
		}
		x := reduce(fold(z + uint64(w)))
		z = reduce(fold(fold(x*x) + sq))
	}
	return uint32(z)
}

// prime is the checksum's modulus, the Mersenne prime 2³¹−1.
const prime = 0x7fffffff

// fold maps a to a smaller value congruent to it mod 2³¹−1: since
// 2³¹ ≡ 1, the bits above bit 30 add back in at the bottom. The result
// is below 2³² for any a below 2⁶² (a square), and at most 2³¹+2 for
// any a below 2³³ (a sum of two folded values, or z plus a data word).
func fold(a uint64) uint64 {
	return a&prime + a>>31
}

// reduce maps a, below 2·(2³¹−1), to a mod 2³¹−1 without a branch: the
// borrow of a−p, not a comparison, decides whether p is added back. The
// checksum runs over secret plaintext under a secret key, so its timing
// must depend on neither.
func reduce(a uint64) uint64 {
	d := a - prime
	return d + prime&uint64(int64(d)>>63)
}

// ChecksumEqual compares two keyed checksums in constant time. A
// data-dependent comparison would let an attacker forging safe messages
// learn the checksum byte-by-byte from timing; §2.1's integrity argument
// assumes the verifier leaks nothing about the expected value.
func ChecksumEqual(a, b uint32) bool {
	return subtle.ConstantTimeEq(int32(a), int32(b)) == 1
}
