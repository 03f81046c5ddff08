package des

import (
	"encoding/binary"
	"errors"
)

// Sealed-message helpers. Every encrypted structure in the protocol —
// tickets, authenticators, KDC reply bodies, private messages — is carried
// as a "sealed" byte string: an 8-byte header (payload length + keyed
// checksum) followed by the payload, zero-padded and encrypted in PCBC
// mode with the key itself as IV (the Kerberos v4 convention).
//
// PCBC propagates any ciphertext corruption through the remainder of the
// message (§2.2), and the checksum in the header detects it, so a sealed
// message that unseals cleanly is both confidential and intact.
//
// The Cipher methods are the workhorses: they perform exactly one
// allocation (the output buffer) and reuse the cipher's expanded key
// schedule. The package-level Seal/Unseal functions take a bare key:
// they expand it into a stack Cipher and wipe that before returning,
// so a key passed by value leaves no schedule behind. Callers that
// reuse a key hold its *Cipher instead.

// ErrIntegrity reports a sealed message that failed its checksum or
// structure checks after decryption — corruption, truncation, or a wrong
// key.
var ErrIntegrity = errors.New("des: sealed message integrity check failed")

const sealHeaderLen = 8

// SealedLen returns the sealed size of an n-byte plaintext: header plus
// payload, rounded up to whole blocks.
func SealedLen(n int) int {
	return (sealHeaderLen + n + BlockSize - 1) / BlockSize * BlockSize
}

// Seal encrypts plaintext under the cipher's key and returns the sealed
// ciphertext in a fresh buffer (the only allocation it performs).
//
//kerb:hotpath
func (c *Cipher) Seal(plaintext []byte) []byte {
	buf := make([]byte, SealedLen(len(plaintext)))
	binary.BigEndian.PutUint32(buf[0:4], uint32(len(plaintext)))
	binary.BigEndian.PutUint32(buf[4:8], QuadChecksum(c.key, plaintext))
	copy(buf[sealHeaderLen:], plaintext)
	// Error is impossible: buf is block-aligned and the IV is 8 bytes.
	_ = c.EncryptPCBC(buf, buf, c.key[:])
	return buf
}

// Unseal decrypts a sealed ciphertext and verifies its integrity,
// returning the original plaintext. A wrong key, truncated input, or any
// tampering yields ErrIntegrity.
//
//kerb:hotpath
func (c *Cipher) Unseal(ciphertext []byte) ([]byte, error) {
	return c.UnsealTo(make([]byte, len(ciphertext)), ciphertext)
}

// UnsealTo is Unseal decrypting into dst, which must hold at least
// len(ciphertext) bytes; the plaintext returned is a subslice of dst.
// It allocates nothing, so a caller can unseal a secret into a stack
// buffer and wipe it.
func (c *Cipher) UnsealTo(dst, ciphertext []byte) ([]byte, error) {
	if len(ciphertext) < sealHeaderLen || len(ciphertext)%BlockSize != 0 || len(dst) < len(ciphertext) {
		return nil, ErrIntegrity
	}
	buf := dst[:len(ciphertext)]
	if err := c.DecryptPCBC(buf, ciphertext, c.key[:]); err != nil {
		return nil, ErrIntegrity
	}
	// Compared unsigned: on a 32-bit platform int(n) can be negative.
	n := binary.BigEndian.Uint32(buf[0:4])
	if uint64(n) > uint64(len(buf)-sealHeaderLen) {
		return nil, ErrIntegrity
	}
	plaintext := buf[sealHeaderLen : sealHeaderLen+int(n)]
	if !ChecksumEqual(QuadChecksum(c.key, plaintext), binary.BigEndian.Uint32(buf[4:8])) {
		return nil, ErrIntegrity
	}
	// Padding must be zeros; reject other trailing bytes.
	for _, b := range buf[sealHeaderLen+int(n):] {
		if b != 0 {
			return nil, ErrIntegrity
		}
	}
	return plaintext, nil
}

// Seal encrypts plaintext under key and returns the sealed ciphertext.
// The schedule is expanded on the stack and wiped before returning.
//
//kerb:hotpath
func Seal(key Key, plaintext []byte) []byte {
	var c Cipher
	c.SetKey(key)
	defer c.wipe()
	return c.Seal(plaintext)
}

// Unseal decrypts a sealed ciphertext under key and verifies its
// integrity. The schedule is expanded on the stack and wiped before
// returning.
//
//kerb:hotpath
func Unseal(key Key, ciphertext []byte) ([]byte, error) {
	var c Cipher
	c.SetKey(key)
	defer c.wipe()
	return c.Unseal(ciphertext)
}
