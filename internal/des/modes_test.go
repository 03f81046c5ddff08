package des

import (
	"bytes"
	"crypto/cipher"
	stddes "crypto/des"
	"crypto/rand"
	"crypto/subtle"
	"encoding/binary"
	"fmt"
	mrand "math/rand"
	"testing"
	"testing/quick"
)

func randomKeyT(t testing.TB) Key {
	t.Helper()
	k, err := NewRandomKey()
	if err != nil {
		t.Fatal(err)
	}
	return k
}

// TestModesRoundTrip checks that every mode decrypts what it encrypted.
func TestModesRoundTrip(t *testing.T) {
	key := randomKeyT(t)
	c := NewCipher(key)
	iv := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	for _, mode := range []Mode{ModeECB, ModeCBC, ModePCBC} {
		for _, blocks := range []int{1, 2, 7, 64} {
			src := make([]byte, blocks*BlockSize)
			if _, err := rand.Read(src); err != nil {
				t.Fatal(err)
			}
			ct := make([]byte, len(src))
			if err := c.Encrypt(mode, ct, src, iv); err != nil {
				t.Fatalf("%v encrypt: %v", mode, err)
			}
			if bytes.Equal(ct, src) {
				t.Fatalf("%v: ciphertext equals plaintext", mode)
			}
			pt := make([]byte, len(src))
			if err := c.Decrypt(mode, pt, ct, iv); err != nil {
				t.Fatalf("%v decrypt: %v", mode, err)
			}
			if !bytes.Equal(pt, src) {
				t.Errorf("%v with %d blocks: round trip mismatch", mode, blocks)
			}
		}
	}
}

// pcbcStdlib runs PCBC over crypto/des's block: the oracle for
// EncryptPCBC and DecryptPCBC. dst and src must not overlap.
func pcbcStdlib(b cipher.Block, dst, src, iv []byte, decrypt bool) {
	chain := append([]byte(nil), iv...)
	for i := 0; i < len(src); i += BlockSize {
		in, out := src[i:i+BlockSize], dst[i:i+BlockSize]
		if decrypt {
			b.Decrypt(out, in)
			subtle.XORBytes(out, out, chain)
		} else {
			subtle.XORBytes(out, in, chain)
			b.Encrypt(out, out)
		}
		subtle.XORBytes(chain, in, out)
	}
}

// checkModesMatchStdlib runs every mode of c over src in both directions,
// once into a separate buffer and once in place, and compares each
// result with crypto/des and crypto/cipher: ECB block by block, CBC
// through cipher's CBC, PCBC through pcbcStdlib. It also checks
// CBCChecksum over every prefix of src, aligned or not, against the last block
// of the stdlib CBC encryption of the zero-padded prefix under the key
// as IV.
func checkModesMatchStdlib(t *testing.T, key Key, iv, src []byte) {
	t.Helper()
	c := NewCipher(key)
	std, err := stddes.NewCipher(key[:])
	if err != nil {
		t.Fatal(err)
	}
	want := func(mode Mode, decrypt bool) []byte {
		out := make([]byte, len(src))
		switch {
		case mode == ModeECB && decrypt:
			for i := 0; i < len(src); i += BlockSize {
				std.Decrypt(out[i:], src[i:])
			}
		case mode == ModeECB:
			for i := 0; i < len(src); i += BlockSize {
				std.Encrypt(out[i:], src[i:])
			}
		case mode == ModeCBC && decrypt:
			cipher.NewCBCDecrypter(std, iv).CryptBlocks(out, src)
		case mode == ModeCBC:
			cipher.NewCBCEncrypter(std, iv).CryptBlocks(out, src)
		default:
			pcbcStdlib(std, out, src, iv, decrypt)
		}
		return out
	}
	for _, mode := range []Mode{ModeECB, ModeCBC, ModePCBC} {
		for _, decrypt := range []bool{false, true} {
			run := c.Encrypt
			if decrypt {
				run = c.Decrypt
			}
			exp := want(mode, decrypt)
			apart := make([]byte, len(src))
			if err := run(mode, apart, src, iv); err != nil {
				t.Fatal(err)
			}
			inPlace := append([]byte(nil), src...)
			if err := run(mode, inPlace, inPlace, iv); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(apart, exp) || !bytes.Equal(inPlace, exp) {
				t.Fatalf("%v decrypt=%v, key %x, iv %x, %d blocks:\n got %x\n in place %x\nwant %x",
					mode, decrypt, key, iv, len(src)/BlockSize, apart, inPlace, exp)
			}
		}
	}
	for n := 0; n <= len(src); n++ {
		padded := Pad(src[:n])
		last := key[:]
		if len(padded) > 0 {
			ct := make([]byte, len(padded))
			cipher.NewCBCEncrypter(std, key[:]).CryptBlocks(ct, padded)
			last = ct[len(ct)-BlockSize:]
		}
		if got := c.CBCChecksum(src[:n]); got != binary.BigEndian.Uint64(last) {
			t.Fatalf("CBCChecksum, key %x, %d bytes: %#x, want %x", key, n, got, last)
		}
	}
}

// TestModesMatchStdlib checks every mode against crypto/des at every
// block count from 0 to 33, so the two-block decryption path runs with
// and without its single-block tail, under random keys and IVs.
func TestModesMatchStdlib(t *testing.T) {
	rng := mrand.New(mrand.NewSource(26))
	for blocks := 0; blocks <= 33; blocks++ {
		for trial := 0; trial < 4; trial++ {
			var key Key
			iv := make([]byte, BlockSize)
			src := make([]byte, blocks*BlockSize)
			rng.Read(key[:])
			rng.Read(iv)
			rng.Read(src)
			checkModesMatchStdlib(t, key, iv, src)
		}
	}
}

// FuzzModes runs the stdlib comparison of TestModesMatchStdlib on
// arbitrary keys, IVs and messages (cut to whole blocks).
func FuzzModes(f *testing.F) {
	f.Add(uint64(0x133457799bbcdff1), uint64(0), []byte("0123456789abcdef"))
	f.Add(uint64(0x0101010101010101), uint64(0xffffffffffffffff), bytes.Repeat([]byte{0xaa}, 24))
	f.Add(uint64(0xfedcba9876543210), uint64(0x0123456789abcdef), []byte{})
	f.Fuzz(func(t *testing.T, key, iv uint64, data []byte) {
		var k Key
		binary.BigEndian.PutUint64(k[:], key)
		ivb := binary.BigEndian.AppendUint64(nil, iv)
		checkModesMatchStdlib(t, k, ivb, data[:len(data)/BlockSize*BlockSize])
	})
}

// TestModeInputValidation checks block alignment and IV length errors.
func TestModeInputValidation(t *testing.T) {
	c := NewCipher(randomKeyT(t))
	iv := make([]byte, 8)
	if err := c.EncryptCBC(make([]byte, 9), make([]byte, 9), iv); err == nil {
		t.Error("unaligned input accepted")
	}
	if err := c.EncryptCBC(make([]byte, 8), make([]byte, 8), iv[:4]); err == nil {
		t.Error("short IV accepted")
	}
	if err := c.EncryptPCBC(make([]byte, 4), make([]byte, 8), iv); err == nil {
		t.Error("short dst accepted")
	}
	if err := c.Encrypt(Mode(99), nil, nil, nil); err == nil {
		t.Error("unknown mode accepted")
	}
	if err := c.Decrypt(Mode(99), nil, nil, nil); err == nil {
		t.Error("unknown mode accepted for decrypt")
	}
}

// TestCBCErrorPropagationIsLocal reproduces the §2.2 contrast: in CBC a
// single corrupted ciphertext block garbles only that block and the next
// one after decryption.
func TestCBCErrorPropagationIsLocal(t *testing.T) {
	key := randomKeyT(t)
	c := NewCipher(key)
	iv := make([]byte, 8)
	const blocks = 16
	src := bytes.Repeat([]byte{0xAA}, blocks*BlockSize)
	ct := make([]byte, len(src))
	if err := c.EncryptCBC(ct, src, iv); err != nil {
		t.Fatal(err)
	}
	ct[3*BlockSize] ^= 0x01 // corrupt block 3
	pt := make([]byte, len(src))
	if err := c.DecryptCBC(pt, ct, iv); err != nil {
		t.Fatal(err)
	}
	for b := 0; b < blocks; b++ {
		got := pt[b*BlockSize : (b+1)*BlockSize]
		want := src[b*BlockSize : (b+1)*BlockSize]
		damaged := !bytes.Equal(got, want)
		switch b {
		case 3, 4:
			if !damaged {
				t.Errorf("CBC: block %d should be damaged", b)
			}
		default:
			if damaged {
				t.Errorf("CBC: block %d damaged; corruption not local", b)
			}
		}
	}
}

// TestPCBCErrorPropagation reproduces the property the paper relies on:
// in PCBC a single corrupted block propagates "throughout the message",
// rendering the entire tail useless.
func TestPCBCErrorPropagation(t *testing.T) {
	key := randomKeyT(t)
	c := NewCipher(key)
	iv := make([]byte, 8)
	const blocks = 16
	src := bytes.Repeat([]byte{0x55}, blocks*BlockSize)
	ct := make([]byte, len(src))
	if err := c.EncryptPCBC(ct, src, iv); err != nil {
		t.Fatal(err)
	}
	ct[3*BlockSize+5] ^= 0x80
	pt := make([]byte, len(src))
	if err := c.DecryptPCBC(pt, ct, iv); err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 3; b++ {
		if !bytes.Equal(pt[b*BlockSize:(b+1)*BlockSize], src[b*BlockSize:(b+1)*BlockSize]) {
			t.Errorf("PCBC: block %d before corruption damaged", b)
		}
	}
	// Every block from the corruption to the end must be garbled (each
	// with probability 1-2^-64; a clean block indicates broken chaining).
	for b := 3; b < blocks; b++ {
		if bytes.Equal(pt[b*BlockSize:(b+1)*BlockSize], src[b*BlockSize:(b+1)*BlockSize]) {
			t.Errorf("PCBC: block %d survived corruption; error did not propagate", b)
		}
	}
}

// TestPCBCRoundTripProperty is a property test over arbitrary messages.
func TestPCBCRoundTripProperty(t *testing.T) {
	key := randomKeyT(t)
	c := NewCipher(key)
	f := func(data []byte, iv [8]byte) bool {
		src := Pad(data)
		if len(src) == 0 {
			src = make([]byte, BlockSize)
		}
		ct := make([]byte, len(src))
		if err := c.EncryptPCBC(ct, src, iv[:]); err != nil {
			return false
		}
		pt := make([]byte, len(src))
		if err := c.DecryptPCBC(pt, ct, iv[:]); err != nil {
			return false
		}
		return bytes.Equal(pt, src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestPad(t *testing.T) {
	for n, want := range map[int]int{0: 0, 1: 8, 7: 8, 8: 8, 9: 16, 16: 16} {
		if got := len(Pad(make([]byte, n))); got != want {
			t.Errorf("Pad(%d bytes) has length %d, want %d", n, got, want)
		}
	}
	// Pad must copy, never alias.
	data := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	p := Pad(data)
	p[0] = 99
	if data[0] == 99 {
		t.Error("Pad aliased its input")
	}
}

func TestModeString(t *testing.T) {
	if ModeECB.String() != "ECB" || ModeCBC.String() != "CBC" || ModePCBC.String() != "PCBC" {
		t.Error("mode names wrong")
	}
	if Mode(42).String() != "unknown-mode" {
		t.Error("unknown mode name wrong")
	}
}

// BenchmarkModes prices each mode in both directions at 64 bytes (the
// size of a KDC message) and at 1 KiB.
func BenchmarkModes(b *testing.B) {
	key := Key{0x13, 0x34, 0x57, 0x79, 0x9b, 0xbc, 0xdf, 0xf1}
	c := NewCipher(key)
	iv := make([]byte, 8)
	for _, mode := range []Mode{ModeECB, ModeCBC, ModePCBC} {
		for _, dir := range []string{"encrypt", "decrypt"} {
			run := c.Encrypt
			if dir == "decrypt" {
				run = c.Decrypt
			}
			for _, size := range []int{64, 1024} {
				src := make([]byte, size)
				dst := make([]byte, size)
				b.Run(fmt.Sprintf("%v/%s/%dB", mode, dir, size), func(b *testing.B) {
					b.SetBytes(int64(size))
					for i := 0; i < b.N; i++ {
						if err := run(mode, dst, src, iv); err != nil {
							b.Fatal(err)
						}
					}
				})
			}
		}
	}
}
