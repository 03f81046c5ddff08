package des

import (
	"crypto/rand"
	"crypto/subtle"
	"encoding/binary"
	"fmt"
	"math/bits"
	"sync"
)

// This file covers the paper's key-handling needs: "Each Kerberos principal
// is assigned a large number, its private key ... In the case of a user,
// the private key is the result of a one-way function applied to the user's
// password" (Conventions; §2.1), and the session keys the authentication
// server generates at random.

// weakKeys are the four weak and twelve semi-weak DES keys (FIPS 74),
// which the key generator and StringToKey must avoid: under a weak key
// encryption is its own inverse.
var weakKeys = [][8]byte{
	// Weak.
	{0x01, 0x01, 0x01, 0x01, 0x01, 0x01, 0x01, 0x01},
	{0xfe, 0xfe, 0xfe, 0xfe, 0xfe, 0xfe, 0xfe, 0xfe},
	{0x1f, 0x1f, 0x1f, 0x1f, 0x0e, 0x0e, 0x0e, 0x0e},
	{0xe0, 0xe0, 0xe0, 0xe0, 0xf1, 0xf1, 0xf1, 0xf1},
	// Semi-weak pairs.
	{0x01, 0xfe, 0x01, 0xfe, 0x01, 0xfe, 0x01, 0xfe},
	{0xfe, 0x01, 0xfe, 0x01, 0xfe, 0x01, 0xfe, 0x01},
	{0x1f, 0xe0, 0x1f, 0xe0, 0x0e, 0xf1, 0x0e, 0xf1},
	{0xe0, 0x1f, 0xe0, 0x1f, 0xf1, 0x0e, 0xf1, 0x0e},
	{0x01, 0xe0, 0x01, 0xe0, 0x01, 0xf1, 0x01, 0xf1},
	{0xe0, 0x01, 0xe0, 0x01, 0xf1, 0x01, 0xf1, 0x01},
	{0x1f, 0xfe, 0x1f, 0xfe, 0x0e, 0xfe, 0x0e, 0xfe},
	{0xfe, 0x1f, 0xfe, 0x1f, 0xfe, 0x0e, 0xfe, 0x0e},
	{0x01, 0x1f, 0x01, 0x1f, 0x01, 0x0e, 0x01, 0x0e},
	{0x1f, 0x01, 0x1f, 0x01, 0x0e, 0x01, 0x0e, 0x01},
	{0xe0, 0xfe, 0xe0, 0xfe, 0xf1, 0xfe, 0xf1, 0xfe},
	{0xfe, 0xe0, 0xfe, 0xe0, 0xfe, 0xf1, 0xfe, 0xf1},
}

// oddParity returns b with its low bit set so the byte has odd parity
// over all eight bits.
func oddParity(b byte) byte {
	x := b >> 1
	x ^= x >> 4
	x ^= x >> 2
	x ^= x >> 1
	return b&0xfe | ^x&1
}

// FixParity returns k with each byte forced to odd parity.
func FixParity(k Key) Key {
	for i := range k {
		k[i] = oddParity(k[i])
	}
	return k
}

// HasOddParity reports whether every byte of k has odd parity. The
// comparison is constant-time: parity checks run on candidate keys.
func HasOddParity(k Key) bool {
	fp := FixParity(k)
	defer clear(fp[:])
	return subtle.ConstantTimeCompare(k[:], fp[:]) == 1
}

// weakKeys64 is weakKeys as big-endian words, for the word-wide
// constant-time scan in IsWeak.
var weakKeys64 = func() [16]uint64 {
	var w [16]uint64
	for i := range weakKeys {
		w[i] = binary.BigEndian.Uint64(weakKeys[i][:])
	}
	return w
}()

// IsWeak reports whether k is one of the weak or semi-weak DES keys.
// Every entry is compared in constant time so the scan's duration does
// not depend on the candidate key's value: each comparison is a single
// branch-free word test, and all sixteen always run.
func IsWeak(k Key) bool {
	kw := binary.BigEndian.Uint64(k[:])
	match := uint64(0)
	for i := range weakKeys64 {
		d := kw ^ weakKeys64[i]
		// (d | -d) has its top bit set exactly when d is nonzero, so
		// this adds 1 for a match and 0 otherwise, without branching.
		match |= ^(d | -d) >> 63
	}
	return match == 1
}

// fixWeak nudges a weak key into a strong one the way the Kerberos
// library did: by flipping the low nibble of the last byte (0xf0 XOR),
// then restoring parity.
func fixWeak(k Key) Key {
	if IsWeak(k) {
		k[7] ^= 0xf0
		k = FixParity(k)
	}
	return k
}

// randBuf batches CSPRNG reads: one operating-system read refills 64
// keys' worth of bits, so a KDC issuing a session key per ticket (§4.2)
// does not pay a system call per issue. Buffers live in a sync.Pool, so
// concurrent issuers draw from distinct buffers without contending.
type randBuf struct {
	b   [64 * KeySize]byte
	off int
}

var randPool = sync.Pool{
	// A fresh buffer starts exhausted so first use fills it.
	New: func() any { return &randBuf{off: 64 * KeySize} },
}

// randKeyBytes fills k with CSPRNG bytes from a pooled buffer. Handed-out
// bytes are wiped from the buffer so a pooled buffer never retains key
// material.
func randKeyBytes(k *Key) error {
	rb := randPool.Get().(*randBuf)
	if rb.off+KeySize > len(rb.b) {
		if _, err := rand.Read(rb.b[:]); err != nil {
			randPool.Put(rb)
			return err
		}
		rb.off = 0
	}
	copy(k[:], rb.b[rb.off:rb.off+KeySize])
	clear(rb.b[rb.off : rb.off+KeySize])
	rb.off += KeySize
	randPool.Put(rb)
	return nil
}

// NewRandomKey generates a fresh session key: random bits from the
// operating system (batched through a pooled buffer), odd parity, never
// weak. The authentication server calls this for every ticket it issues
// (§4.2).
func NewRandomKey() (Key, error) {
	var k Key
	for {
		if err := randKeyBytes(&k); err != nil {
			return Key{}, fmt.Errorf("des: generating session key: %w", err)
		}
		k = fixWeak(FixParity(k))
		if !IsWeak(k) {
			return k, nil
		}
	}
}

// reverse7 reverses the low 7 bits of b (the key bits; parity excluded).
// Used by the fan-fold step of StringToKey, matching the Kerberos v4
// convention of bit-reversing every other 8-byte group.
func reverse7(b byte) byte {
	return bits.Reverse8(b) >> 1
}

// StringToKey converts a user's password into a DES key — the "one-way
// function applied to the user's password" of the paper's Conventions
// section. The algorithm follows the Kerberos v4 scheme: the password is
// zero-padded to a multiple of 8 bytes and fan-folded with XOR, with every
// other 8-byte group bit-reversed; the folded value (with parity) then
// keys a CBC checksum over the padded password, and the checksum — with
// parity fixed and weak keys corrected — is the key.
//
// Realm and name salt the password so equal passwords in different realms
// yield different keys.
func StringToKey(password, salt string) Key {
	input := []byte(password + salt)
	if len(input) == 0 {
		input = []byte{0}
	}
	padded := Pad(input)

	var k Key
	for g := 0; g*BlockSize < len(padded); g++ {
		block := padded[g*BlockSize : (g+1)*BlockSize]
		if g%2 == 0 {
			for i := 0; i < BlockSize; i++ {
				k[i] ^= block[i] << 1 // shift key bits into the high 7
			}
		} else {
			// Odd groups are folded in reversed, byte- and bit-wise.
			for i := 0; i < BlockSize; i++ {
				k[i] ^= reverse7(block[BlockSize-1-i]) << 1
			}
		}
	}
	k = fixWeak(FixParity(k))

	// The fold key and its schedule hold password-derived bits: expand
	// on the stack and wipe both (§4.2). The checksum's IV is the fold
	// key itself.
	var c Cipher
	c.SetKey(k)
	sum := c.CBCChecksum(padded)
	c.wipe()
	clear(k[:])
	clear(padded)
	clear(input)
	var out Key
	binary.BigEndian.PutUint64(out[:], sum)
	return fixWeak(FixParity(out))
}

// CBCChecksum computes the DES-CBC message authentication code of data
// under the cipher's key, using the key as IV (the Kerberos convention).
// data need not be block-aligned; a short final block is zero-extended in
// place, without allocating a padded copy. The chain stays in the
// core's domain (fast.go) and only the last block is mapped out.
func (c *Cipher) CBCChecksum(data []byte) uint64 {
	prev := toDomain(binary.BigEndian.Uint64(c.key[:]))
	n := len(data) / BlockSize * BlockSize
	for i := 0; i < n; i += BlockSize {
		prev = c.core(toDomain(binary.BigEndian.Uint64(data[i:]))^prev, false)
	}
	if n < len(data) {
		var last [BlockSize]byte
		copy(last[:], data[n:])
		prev = c.core(toDomain(binary.BigEndian.Uint64(last[:]))^prev, false)
	}
	return fromDomain(prev)
}

// CBCChecksum computes the DES-CBC message authentication code of data
// under key. The schedule is expanded on the stack and wiped before
// returning.
func CBCChecksum(key Key, data []byte) uint64 {
	var c Cipher
	c.SetKey(key)
	defer c.wipe()
	return c.CBCChecksum(data)
}
