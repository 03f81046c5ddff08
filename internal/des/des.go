// Package des is the encryption library of the reproduction: the Data
// Encryption Standard implemented from FIPS publication 46, together with
// the block modes the paper describes (ECB, CBC, and the Propagating CBC
// extension), the Kerberos password-to-key transformation, the keyed
// quadratic checksum used by safe messages, and sealed-message helpers.
//
// The paper (§2.2) describes the encryption library as an independent,
// replaceable module offering "several methods of encryption ... with
// tradeoffs between speed and security"; this package is that module.
package des

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// BlockSize is the DES block size in bytes.
const BlockSize = 8

// KeySize is the DES key size in bytes (56 key bits + 8 parity bits).
const KeySize = 8

// Key is a DES key: 8 bytes, each carrying 7 key bits and an odd-parity
// low bit. The zero Key is invalid; obtain keys from NewRandomKey,
// StringToKey, or FixParity on raw bytes.
type Key [KeySize]byte

// ErrKeySize reports a key of the wrong length.
var ErrKeySize = errors.New("des: key must be 8 bytes")

// ErrInput reports ciphertext or plaintext whose length is not a multiple
// of the block size.
var ErrInput = errors.New("des: input not a multiple of the block size")

// Cipher is an expanded DES key: the 16 round subkeys, stored as the
// window-positioned word pairs the table-driven round consumes
// (fast.go), plus the key itself so sealed-message operations (which
// use the key as IV and checksum seed) need only the Cipher. It is
// safe for concurrent use once expanded and never mutated by the
// cipher operations, so one Cipher may be shared freely.
//
// The caller owns every schedule: a realm's hot keys live in kdb's
// hot-key table, which copies them into its callers' Ciphers; any
// other key is expanded into a stack or scratch Cipher (SetKey) and
// wiped when its use ends. No package-level state holds a key or a
// schedule.
type Cipher struct {
	ks  [32]uint32 // the 16 round subkeys as window-positioned word pairs
	key Key
}

// NewCipher expands key into a heap Cipher, for schedules that outlive
// the call that makes them.
func NewCipher(key Key) *Cipher {
	c := new(Cipher)
	c.SetKey(key)
	return c
}

// SetKey expands key into c in place, replacing whatever c held. It
// does not allocate, so a caller can expand a short-lived key into a
// stack or pooled Cipher and wipe it afterwards.
//
//kerb:hotpath
func (c *Cipher) SetKey(key Key) {
	c.key = key
	c.expandKey(key)
}

// wipe zeroes the schedule and the key (§4.2: the key is "erased from
// memory" once used).
func (c *Cipher) wipe() { *c = Cipher{} }

// Key returns the key this Cipher was expanded from.
func (c *Cipher) Key() Key { return c.key }

// NewCipherBytes expands an 8-byte key slice into a Cipher.
func NewCipherBytes(key []byte) (*Cipher, error) {
	if len(key) != KeySize {
		return nil, ErrKeySize
	}
	c := new(Cipher)
	copy(c.key[:], key) // straight into the Cipher: no loose copy to wipe
	c.expandKey(c.key)
	return c, nil
}

// permute maps v, an nIn-bit value, through tab. Table entries are 1-based
// bit positions counted from the most significant bit, per FIPS 46. It
// runs only at init, to build the lookup tables of fast.go.
func permute(v uint64, nIn int, tab []byte) uint64 {
	var out uint64
	for _, p := range tab {
		out = out<<1 | (v>>uint(nIn-int(p)))&1
	}
	return out
}

// rotate28 rotates a 28-bit value left by n bits.
func rotate28(v uint64, n byte) uint64 {
	return ((v << n) | (v >> (28 - n))) & 0x0fffffff
}

// EncryptBlock encrypts a single 8-byte block. dst and src may overlap.
func (c *Cipher) EncryptBlock(dst, src []byte) {
	out := c.cryptFast(binary.BigEndian.Uint64(src), false)
	binary.BigEndian.PutUint64(dst, out)
}

// DecryptBlock decrypts a single 8-byte block. dst and src may overlap.
func (c *Cipher) DecryptBlock(dst, src []byte) {
	out := c.cryptFast(binary.BigEndian.Uint64(src), true)
	binary.BigEndian.PutUint64(dst, out)
}

// checkBlocks validates that dst and src describe whole blocks.
func checkBlocks(dst, src []byte) error {
	if len(src)%BlockSize != 0 {
		return ErrInput
	}
	if len(dst) < len(src) {
		return fmt.Errorf("des: output buffer too small: %d < %d", len(dst), len(src))
	}
	return nil
}
