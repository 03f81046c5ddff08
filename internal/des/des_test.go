package des

import (
	"bytes"
	stddes "crypto/des"
	"encoding/binary"
	"encoding/hex"
	"math/bits"
	"math/rand"
	"testing"
	"testing/quick"
)

func mustHex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatalf("bad hex %q: %v", s, err)
	}
	return b
}

func keyFrom(b []byte) Key {
	var k Key
	copy(k[:], b)
	return k
}

// TestDESKnownVectors checks the cipher core against published DES test
// vectors.
func TestDESKnownVectors(t *testing.T) {
	vectors := []struct{ key, plain, cipher string }{
		{"133457799bbcdff1", "0123456789abcdef", "85e813540f0ab405"},
		{"0e329232ea6d0d73", "8787878787878787", "0000000000000000"},
		{"0123456789abcdef", "4e6f772069732074", "3fa40e8a984d4815"},
		{"0101010101010101", "0000000000000000", "8ca64de9c1b123a7"},
		{"fedcba9876543210", "0123456789abcdef", "ed39d950fa74bcc4"},
	}
	for _, v := range vectors {
		c := NewCipher(keyFrom(mustHex(t, v.key)))
		got := make([]byte, 8)
		c.EncryptBlock(got, mustHex(t, v.plain))
		if hex.EncodeToString(got) != v.cipher {
			t.Errorf("key %s: encrypt(%s) = %x, want %s", v.key, v.plain, got, v.cipher)
		}
		back := make([]byte, 8)
		c.DecryptBlock(back, got)
		if hex.EncodeToString(back) != v.plain {
			t.Errorf("key %s: decrypt round trip = %x, want %s", v.key, back, v.plain)
		}
	}
}

// TestDESMatchesStdlib cross-validates our from-scratch implementation
// against the standard library's crypto/des over random keys and blocks.
func TestDESMatchesStdlib(t *testing.T) {
	f := func(key [8]byte, block [8]byte) bool {
		ours := NewCipher(key)
		std, err := stddes.NewCipher(key[:])
		if err != nil {
			return false
		}
		a := make([]byte, 8)
		b := make([]byte, 8)
		ours.EncryptBlock(a, block[:])
		std.Encrypt(b, block[:])
		if !bytes.Equal(a, b) {
			return false
		}
		ours.DecryptBlock(a, a)
		return bytes.Equal(a, block[:])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestWeakKeysSelfInverse verifies the defining property of the four weak
// keys: encryption is its own inverse.
func TestWeakKeysSelfInverse(t *testing.T) {
	block := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	for i := 0; i < 4; i++ {
		k := Key(weakKeys[i])
		c := NewCipher(k)
		out := make([]byte, 8)
		c.EncryptBlock(out, block)
		c.EncryptBlock(out, out)
		if !bytes.Equal(out, block) {
			t.Errorf("weak key %x: double encryption is not identity", k)
		}
	}
}

// TestSemiWeakPairs verifies that each semi-weak key pair inverts the
// other's encryption.
func TestSemiWeakPairs(t *testing.T) {
	block := []byte{0xde, 0xad, 0xbe, 0xef, 0x01, 0x02, 0x03, 0x04}
	for i := 4; i < len(weakKeys); i += 2 {
		c1 := NewCipher(Key(weakKeys[i]))
		c2 := NewCipher(Key(weakKeys[i+1]))
		out := make([]byte, 8)
		c1.EncryptBlock(out, block)
		c2.EncryptBlock(out, out)
		if !bytes.Equal(out, block) {
			t.Errorf("semi-weak pair %d/%d does not invert", i, i+1)
		}
	}
}

func TestNewCipherBytesLength(t *testing.T) {
	if _, err := NewCipherBytes(make([]byte, 7)); err == nil {
		t.Error("7-byte key accepted")
	}
	if _, err := NewCipherBytes(make([]byte, 8)); err != nil {
		t.Errorf("8-byte key rejected: %v", err)
	}
}

func BenchmarkEncryptBlock(b *testing.B) {
	c := NewCipher(Key{0x13, 0x34, 0x57, 0x79, 0x9b, 0xbc, 0xdf, 0xf1})
	buf := make([]byte, 8)
	b.SetBytes(8)
	for i := 0; i < b.N; i++ {
		c.EncryptBlock(buf, buf)
	}
}

// BenchmarkStdlibEncryptBlock is the standard library's DES block under
// the same key, the yardstick for BenchmarkEncryptBlock.
func BenchmarkStdlibEncryptBlock(b *testing.B) {
	c, err := stddes.NewCipher([]byte{0x13, 0x34, 0x57, 0x79, 0x9b, 0xbc, 0xdf, 0xf1})
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 8)
	b.SetBytes(8)
	for i := 0; i < b.N; i++ {
		c.Encrypt(buf, buf)
	}
}

func BenchmarkSealUnseal1K(b *testing.B) {
	key, _ := NewRandomKey()
	msg := bytes.Repeat([]byte("athena!!"), 128)
	b.SetBytes(int64(len(msg)))
	for i := 0; i < b.N; i++ {
		sealed := Seal(key, msg)
		if _, err := Unseal(key, sealed); err != nil {
			b.Fatal(err)
		}
	}
}

// The bit-by-bit transcription of FIPS 46: key expansion through PC-1,
// the rotations and PC-2, and the Feistel network through E, the
// S-boxes and P, one bit per step. It is the oracle the table-driven
// expansion and cipher core are checked against.

// referenceSubkeys expands key into the 16 48-bit round subkeys,
// MSB-aligned in the low 48 bits.
func referenceSubkeys(key Key) [16]uint64 {
	var sub [16]uint64
	k56 := permute(binary.BigEndian.Uint64(key[:]), 64, permutedChoice1[:])
	cHalf := k56 >> 28
	dHalf := k56 & 0x0fffffff
	for round := 0; round < 16; round++ {
		cHalf = rotate28(cHalf, keyRotations[round])
		dHalf = rotate28(dHalf, keyRotations[round])
		sub[round] = permute(cHalf<<28|dHalf, 56, permutedChoice2[:])
	}
	return sub
}

// referenceRoundWords is the expansion in the window-positioned form
// Cipher.ks stores.
func referenceRoundWords(key Key) [32]uint32 {
	var ks [32]uint32
	for r, k := range referenceSubkeys(key) {
		ks[2*r] = uint32(k>>42&0x3f)<<26 | uint32(k>>30&0x3f)<<18 |
			uint32(k>>18&0x3f)<<10 | uint32(k>>6&0x3f)<<2
		ks[2*r+1] = uint32(k>>36&0x3f)<<26 | uint32(k>>24&0x3f)<<18 |
			uint32(k>>12&0x3f)<<10 | uint32(k&0x3f)<<2
	}
	return ks
}

// feistel is the DES cipher function f(R, K).
func feistel(r uint32, subkey uint64) uint32 {
	x := permute(uint64(r), 32, expansion[:]) ^ subkey
	var sOut uint64
	for i := 0; i < 8; i++ {
		six := byte(x>>uint(42-6*i)) & 0x3f
		row := (six>>4)&2 | six&1
		col := (six >> 1) & 0xf
		sOut = sOut<<4 | uint64(sBoxes[i][row*16+col])
	}
	return uint32(permute(sOut, 32, roundPermutation[:]))
}

// cryptReference runs one block through the 16 rounds under the given
// subkeys.
func cryptReference(sub *[16]uint64, block uint64, decrypt bool) uint64 {
	v := permute(block, 64, initialPermutation[:])
	l := uint32(v >> 32)
	r := uint32(v)
	for round := 0; round < 16; round++ {
		k := sub[round]
		if decrypt {
			k = sub[15-round]
		}
		l, r = r, l^feistel(r, k)
	}
	// The halves are swapped once more by the standard's pre-output step.
	return permute(uint64(r)<<32|uint64(l), 64, finalPermutation[:])
}

// TestFastMatchesReference cross-checks the table-driven cipher core
// against the bit-by-bit transcription of FIPS 46.
func TestFastMatchesReference(t *testing.T) {
	f := func(key [8]byte, block uint64) bool {
		c := NewCipher(Key(key))
		sub := referenceSubkeys(Key(key))
		return c.cryptFast(block, false) == cryptReference(&sub, block, false) &&
			c.cryptFast(block, true) == cryptReference(&sub, block, true)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestDomainMapsMatchIP checks the delta-swap domain maps against the
// FIPS tables: toDomain is IP followed by rotating each half right one
// bit, and fromDomain undoes it, ending in FP.
func TestDomainMapsMatchIP(t *testing.T) {
	f := func(block uint64) bool {
		ip := permute(block, 64, initialPermutation[:])
		rot := uint64(bits.RotateLeft32(uint32(ip>>32), -1))<<32 | uint64(bits.RotateLeft32(uint32(ip), -1))
		back := uint64(bits.RotateLeft32(uint32(block>>32), 1))<<32 | uint64(bits.RotateLeft32(uint32(block), 1))
		return toDomain(block) == rot && fromDomain(toDomain(block)) == block &&
			fromDomain(block) == permute(back, 64, finalPermutation[:])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1000}); err != nil {
		t.Error(err)
	}
}

// TestExpandKeyMatchesReference is the differential test of the
// table-driven key expansion: every weak and semi-weak key, the
// all-zero and all-ones keys, and 10k seeded random keys (parity bits
// included — PC-1 must ignore them) expand to exactly the schedule the
// bit-by-bit oracle computes.
func TestExpandKeyMatchesReference(t *testing.T) {
	keys := []Key{{}, {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff}}
	for _, w := range weakKeys {
		keys = append(keys, Key(w))
	}
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 10000; i++ {
		var k Key
		rng.Read(k[:])
		keys = append(keys, k)
	}
	var c Cipher
	for _, k := range keys {
		c.SetKey(k)
		if want := referenceRoundWords(k); c.ks != want {
			t.Fatalf("key %x: table expansion %08x, reference %08x", k, c.ks, want)
		}
		if c.Key() != k {
			t.Fatalf("key %x: Cipher.Key() = %x", k, c.Key())
		}
	}
}

// TestExpandKeyAllocs guards the caller-owned schedule: expanding a key
// into an existing Cipher must not allocate, and the key-taking helpers
// must keep their stack Cipher on the stack.
func TestExpandKeyAllocs(t *testing.T) {
	key := Key{0x13, 0x34, 0x57, 0x79, 0x9b, 0xbc, 0xdf, 0xf1}
	var c Cipher
	allocs := testing.AllocsPerRun(100, func() {
		c.SetKey(key)
		key[0]++
	})
	if allocs != 0 {
		t.Errorf("SetKey allocates %.1f objects/op, want 0", allocs)
	}
	data := make([]byte, 64)
	allocs = testing.AllocsPerRun(100, func() {
		CBCChecksum(key, data)
		key[1]++
	})
	if allocs != 0 {
		t.Errorf("CBCChecksum(key, ...) allocates %.1f objects/op, want 0", allocs)
	}
}

// Benchmark results land in these so the compiler keeps the calls.
var (
	cipherSink *Cipher
	sealedSink []byte
)

// BenchmarkNewCipher prices one key expansion onto the heap, as
// kdb's KeyCipher makes it; a stack expansion (SetKey) skips the one
// allocation.
func BenchmarkNewCipher(b *testing.B) {
	key := Key{0x13, 0x34, 0x57, 0x79, 0x9b, 0xbc, 0xdf, 0xf1}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		key[i&7]++
		cipherSink = NewCipher(key)
	}
}

// BenchmarkSealRotatingKeys seals a ticket-sized message under 5,000
// rotating keys, the working set of tgs_flood's live TGT session keys:
// each Seal expands its key on the stack, seals, and wipes.
func BenchmarkSealRotatingKeys(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	keys := make([]Key, 5000)
	for i := range keys {
		rng.Read(keys[i][:])
		keys[i] = FixParity(keys[i])
	}
	msg := make([]byte, 100)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sealedSink = Seal(keys[i%len(keys)], msg)
	}
}

// BenchmarkAblationFastVsReference quantifies the table-driven core
// against the bit-by-bit FIPS transcription — the implementation choice
// that sets the cost of every protocol operation.
func BenchmarkAblationFastVsReference(b *testing.B) {
	c := NewCipher(Key{0x13, 0x34, 0x57, 0x79, 0x9b, 0xbc, 0xdf, 0xf1})
	b.Run("fast-tables", func(b *testing.B) {
		b.SetBytes(8)
		v := uint64(0x0123456789abcdef)
		for i := 0; i < b.N; i++ {
			v = c.cryptFast(v, false)
		}
	})
	b.Run("reference", func(b *testing.B) {
		b.SetBytes(8)
		v := uint64(0x0123456789abcdef)
		sub := referenceSubkeys(c.Key())
		for i := 0; i < b.N; i++ {
			v = cryptReference(&sub, v, false)
		}
	})
}

// BenchmarkAblationSealOverhead separates the sealed-message envelope
// (length + keyed checksum + PCBC) from bare CBC encryption, pricing the
// integrity layer every protocol structure pays for.
func BenchmarkAblationSealOverhead(b *testing.B) {
	key, _ := NewRandomKey()
	c := NewCipher(key)
	msg := make([]byte, 1024)
	dst := make([]byte, 1024)
	b.Run("seal-pcbc-cksum", func(b *testing.B) {
		b.SetBytes(1024)
		for i := 0; i < b.N; i++ {
			Seal(key, msg)
		}
	})
	b.Run("bare-cbc", func(b *testing.B) {
		b.SetBytes(1024)
		for i := 0; i < b.N; i++ {
			if err := c.EncryptCBC(dst, msg, key[:]); err != nil {
				b.Fatal(err)
			}
		}
	})
}
