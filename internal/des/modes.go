package des

import "encoding/binary"

// The paper (§2.2): "Several methods of encryption are provided, with
// tradeoffs between speed and security. An extension to the DES Cypher
// Block Chaining (CBC) mode, called the Propagating CBC mode, is also
// provided. In CBC, an error is propagated only through the current block
// of the cipher, whereas in PCBC, the error is propagated throughout the
// message."

// Mode selects one of the encryption library's block modes.
type Mode int

const (
	// ModeECB is electronic codebook: fastest, no chaining, weakest.
	ModeECB Mode = iota
	// ModeCBC is cipher block chaining: an error affects two blocks.
	ModeCBC
	// ModePCBC is propagating CBC: an error garbles the whole tail of
	// the message, rendering it useless — the property Kerberos wants
	// for authenticated messages.
	ModePCBC
)

// String returns the mode's conventional name.
func (m Mode) String() string {
	switch m {
	case ModeECB:
		return "ECB"
	case ModeCBC:
		return "CBC"
	case ModePCBC:
		return "PCBC"
	default:
		return "unknown-mode"
	}
}

// EncryptECB encrypts src into dst block by block. len(src) must be a
// multiple of BlockSize and dst must be at least as long.
func (c *Cipher) EncryptECB(dst, src []byte) error {
	if err := checkBlocks(dst, src); err != nil {
		return err
	}
	for i := 0; i < len(src); i += BlockSize {
		c.EncryptBlock(dst[i:i+BlockSize], src[i:i+BlockSize])
	}
	return nil
}

// DecryptECB decrypts src into dst block by block.
func (c *Cipher) DecryptECB(dst, src []byte) error {
	if err := checkBlocks(dst, src); err != nil {
		return err
	}
	for i := 0; i < len(src); i += BlockSize {
		c.DecryptBlock(dst[i:i+BlockSize], src[i:i+BlockSize])
	}
	return nil
}

// EncryptCBC encrypts src into dst in cipher block chaining mode with the
// given 8-byte initialization vector.
func (c *Cipher) EncryptCBC(dst, src, iv []byte) error {
	if err := checkBlocks(dst, src); err != nil {
		return err
	}
	if len(iv) != BlockSize {
		return ErrInput
	}
	// The chain runs in the core's domain (fast.go): each ciphertext
	// is fed back as the core left it, and only the plaintext going in
	// and the ciphertext coming out are mapped.
	prev := toDomain(binary.BigEndian.Uint64(iv))
	for i := 0; i < len(src); i += BlockSize {
		prev = c.core(toDomain(binary.BigEndian.Uint64(src[i:]))^prev, false)
		binary.BigEndian.PutUint64(dst[i:], fromDomain(prev))
	}
	return nil
}

// DecryptCBC decrypts src into dst in cipher block chaining mode.
func (c *Cipher) DecryptCBC(dst, src, iv []byte) error {
	if err := checkBlocks(dst, src); err != nil {
		return err
	}
	if len(iv) != BlockSize {
		return ErrInput
	}
	// Blocks decrypt independently, so two at a time share the core;
	// only the XOR chain after them is serial. Both ciphertexts are
	// read before either plaintext is written, so dst may be src.
	prev := binary.BigEndian.Uint64(iv)
	i := 0
	for ; i+2*BlockSize <= len(src); i += 2 * BlockSize {
		c0 := binary.BigEndian.Uint64(src[i:])
		c1 := binary.BigEndian.Uint64(src[i+BlockSize:])
		d0, d1 := c.decrypt2(toDomain(c0), toDomain(c1))
		binary.BigEndian.PutUint64(dst[i:], fromDomain(d0)^prev)
		binary.BigEndian.PutUint64(dst[i+BlockSize:], fromDomain(d1)^c0)
		prev = c1
	}
	if i < len(src) {
		ct := binary.BigEndian.Uint64(src[i:])
		binary.BigEndian.PutUint64(dst[i:], c.cryptFast(ct, true)^prev)
	}
	return nil
}

// EncryptPCBC encrypts src into dst in propagating CBC mode: each input
// block is whitened with both the previous plaintext and the previous
// ciphertext block, so a transmission error propagates through the rest
// of the message.
func (c *Cipher) EncryptPCBC(dst, src, iv []byte) error {
	if err := checkBlocks(dst, src); err != nil {
		return err
	}
	if len(iv) != BlockSize {
		return ErrInput
	}
	// P(i-1) XOR C(i-1), kept in the core's domain as in EncryptCBC;
	// the IV seeds it.
	chain := toDomain(binary.BigEndian.Uint64(iv))
	for i := 0; i < len(src); i += BlockSize {
		p := toDomain(binary.BigEndian.Uint64(src[i:]))
		ct := c.core(p^chain, false)
		binary.BigEndian.PutUint64(dst[i:], fromDomain(ct))
		chain = p ^ ct
	}
	return nil
}

// DecryptPCBC decrypts src into dst in propagating CBC mode.
func (c *Cipher) DecryptPCBC(dst, src, iv []byte) error {
	if err := checkBlocks(dst, src); err != nil {
		return err
	}
	if len(iv) != BlockSize {
		return ErrInput
	}
	// Two blocks at a time through the core, as in DecryptCBC.
	chain := binary.BigEndian.Uint64(iv)
	i := 0
	for ; i+2*BlockSize <= len(src); i += 2 * BlockSize {
		c0 := binary.BigEndian.Uint64(src[i:])
		c1 := binary.BigEndian.Uint64(src[i+BlockSize:])
		d0, d1 := c.decrypt2(toDomain(c0), toDomain(c1))
		p0 := fromDomain(d0) ^ chain
		p1 := fromDomain(d1) ^ p0 ^ c0
		binary.BigEndian.PutUint64(dst[i:], p0)
		binary.BigEndian.PutUint64(dst[i+BlockSize:], p1)
		chain = p1 ^ c1
	}
	if i < len(src) {
		ct := binary.BigEndian.Uint64(src[i:])
		p := c.cryptFast(ct, true) ^ chain
		binary.BigEndian.PutUint64(dst[i:], p)
	}
	return nil
}

// Encrypt runs the selected mode over whole blocks. ECB ignores iv.
func (c *Cipher) Encrypt(mode Mode, dst, src, iv []byte) error {
	switch mode {
	case ModeECB:
		return c.EncryptECB(dst, src)
	case ModeCBC:
		return c.EncryptCBC(dst, src, iv)
	case ModePCBC:
		return c.EncryptPCBC(dst, src, iv)
	default:
		return ErrInput
	}
}

// Decrypt runs the selected mode over whole blocks. ECB ignores iv.
func (c *Cipher) Decrypt(mode Mode, dst, src, iv []byte) error {
	switch mode {
	case ModeECB:
		return c.DecryptECB(dst, src)
	case ModeCBC:
		return c.DecryptCBC(dst, src, iv)
	case ModePCBC:
		return c.DecryptPCBC(dst, src, iv)
	default:
		return ErrInput
	}
}

// Pad returns data zero-padded to a whole number of blocks, always in a
// fresh slice. Kerberos messages carry their own length, so zero padding
// is unambiguous.
func Pad(data []byte) []byte {
	n := len(data)
	padded := make([]byte, (n+BlockSize-1)/BlockSize*BlockSize)
	copy(padded, data)
	return padded
}
