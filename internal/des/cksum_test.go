package des

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"
)

// quadChecksumReference is the plain transcription of the quadratic
// checksum, every step reduced with %: the oracle for QuadChecksum's
// carried square and Mersenne folding.
func quadChecksumReference(key Key, data []byte) uint32 {
	const prime = 0x7fffffff // 2^31 - 1
	mulmod := func(a, b uint64) uint64 { return (a * b) % prime }

	seed := binary.LittleEndian.Uint64(key[:])
	z := seed & prime
	z2 := (seed >> 32) & prime

	n := len(data) &^ 3
	for i := 0; i < n; i += 4 {
		x := (z + uint64(binary.LittleEndian.Uint32(data[i:]))) % prime
		z = (mulmod(x, x) + mulmod(z2, z2)) % prime
		z2 = x
	}
	if n < len(data) {
		var w uint32
		for j, b := range data[n:] {
			w |= uint32(b) << uint(8*j)
		}
		x := (z + uint64(w)) % prime
		z = (mulmod(x, x) + mulmod(z2, z2)) % prime
	}
	return uint32(z)
}

// quadKeyHalves returns a key whose checksum seed has the given low and
// high 32-bit halves.
func quadKeyHalves(lo, hi uint32) Key {
	var k Key
	binary.LittleEndian.PutUint32(k[:4], lo)
	binary.LittleEndian.PutUint32(k[4:], hi)
	return k
}

// TestQuadChecksumMatchesReference checks the folded checksum against
// the % transcription over random keys and every length 0–70.
func TestQuadChecksumMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(26))
	data := make([]byte, 70)
	for trial := 0; trial < 200; trial++ {
		var key Key
		rng.Read(key[:])
		rng.Read(data)
		for n := 0; n <= len(data); n++ {
			if got, want := QuadChecksum(key, data[:n]), quadChecksumReference(key, data[:n]); got != want {
				t.Fatalf("key %x, %d bytes %x: QuadChecksum = %#x, reference %#x", key, n, data[:n], got, want)
			}
		}
	}
}

// TestQuadChecksumFoldEdges drives the fold at its edges: seed halves
// equal to the prime (which the seed mask lets through unreduced) and
// all ones, and data words that push z + w to its maximum.
func TestQuadChecksumFoldEdges(t *testing.T) {
	halves := []uint32{0, 1, 0x7ffffffe, 0x7fffffff, 0x80000000, 0xfffffffe, 0xffffffff}
	datas := [][]byte{
		bytes.Repeat([]byte{0xff}, 70),
		bytes.Repeat([]byte{0xff, 0xff, 0xff, 0x7f}, 18), // words equal to the prime
		bytes.Repeat([]byte{0xfe, 0xff, 0xff, 0x7f}, 18),
		bytes.Repeat([]byte{0x00, 0x00, 0x00, 0x80}, 18),
		make([]byte, 70),
	}
	for _, lo := range halves {
		for _, hi := range halves {
			key := quadKeyHalves(lo, hi)
			for _, data := range datas {
				for n := 0; n <= len(data); n++ {
					if got, want := QuadChecksum(key, data[:n]), quadChecksumReference(key, data[:n]); got != want {
						t.Fatalf("halves %#x/%#x, %d bytes of %x: QuadChecksum = %#x, reference %#x",
							lo, hi, n, data[:4], got, want)
					}
				}
			}
		}
	}
}

// FuzzQuadChecksum compares the folded checksum with the % reference on
// arbitrary keys and data.
func FuzzQuadChecksum(f *testing.F) {
	f.Add(uint64(0), []byte{})
	f.Add(uint64(0xffffffff7fffffff), bytes.Repeat([]byte{0xff}, 70))
	f.Add(uint64(0x7fffffffffffffff), []byte{0xff, 0xff, 0xff, 0x7f, 0x01})
	f.Add(uint64(0x0123456789abcdef), []byte("the quick brown fox jumps over the lazy dog"))
	f.Fuzz(func(t *testing.T, seed uint64, data []byte) {
		var key Key
		binary.LittleEndian.PutUint64(key[:], seed)
		if got, want := QuadChecksum(key, data), quadChecksumReference(key, data); got != want {
			t.Fatalf("key %x, data %x: QuadChecksum = %#x, reference %#x", key, data, got, want)
		}
	})
}

func TestQuadChecksumDeterministic(t *testing.T) {
	key := StringToKey("session", "R")
	data := []byte("the quick brown fox jumps over the lazy dog")
	if QuadChecksum(key, data) != QuadChecksum(key, data) {
		t.Error("checksum not deterministic")
	}
}

func TestQuadChecksumSensitivity(t *testing.T) {
	key := StringToKey("session", "R")
	base := QuadChecksum(key, []byte("hello, athena"))
	if base == QuadChecksum(key, []byte("hello, athenb")) {
		t.Error("content flip not detected")
	}
	if base == QuadChecksum(key, []byte("hello, athen")) {
		t.Error("truncation not detected")
	}
	other := StringToKey("other", "R")
	if base == QuadChecksum(other, []byte("hello, athena")) {
		t.Error("checksum independent of key; safe messages would be forgeable")
	}
}

func TestQuadChecksumLengths(t *testing.T) {
	key := StringToKey("k", "R")
	// All small lengths must be accepted, including empty and non-word-
	// aligned data.
	for n := 0; n <= 17; n++ {
		QuadChecksum(key, make([]byte, n))
	}
}

// TestQuadChecksumKeyedProperty: flipping any single byte changes the sum
// with very high probability; the quick test tolerates none over its
// sample since a 32-bit collision in 100 samples is vanishingly unlikely
// for single-byte flips of short messages.
func TestQuadChecksumKeyedProperty(t *testing.T) {
	key := StringToKey("property", "R")
	f := func(data []byte, idx uint8) bool {
		if len(data) == 0 {
			return true
		}
		i := int(idx) % len(data)
		orig := QuadChecksum(key, data)
		mut := append([]byte(nil), data...)
		mut[i] ^= 0x01
		return orig != QuadChecksum(key, mut)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// BenchmarkQuadChecksum64 prices the checksum over a KDC-message-sized
// plaintext.
// cksumSink keeps the benchmarked checksums live.
var cksumSink uint32

func BenchmarkQuadChecksum64(b *testing.B) {
	key := StringToKey("bench", "R")
	data := make([]byte, 64)
	b.SetBytes(64)
	for i := 0; i < b.N; i++ {
		cksumSink = QuadChecksum(key, data)
	}
}

func BenchmarkQuadChecksum1K(b *testing.B) {
	key := StringToKey("bench", "R")
	data := make([]byte, 1024)
	b.SetBytes(1024)
	for i := 0; i < b.N; i++ {
		cksumSink = QuadChecksum(key, data)
	}
}
