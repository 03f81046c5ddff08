package des

import (
	"encoding/binary"
	"math/rand"
	"testing"
)

// bsCryptLanes runs the bitsliced core over len(in) lanes (≤ 64), lane i
// keyed by keys[i], and returns the per-lane outputs. It is the test
// harness around the transpose–crypt–transpose sequence batch.go drives.
func bsCryptLanes(keys []Key, in [][8]byte, decrypt bool) [][8]byte {
	var planes, kp [64]uint64
	for i := range in {
		planes[i] = binary.BigEndian.Uint64(in[i][:])
	}
	transpose64(&planes)
	for i, k := range keys {
		kp[i] = bsPackKey(k)
	}
	transpose64(&kp)
	bsCrypt(&planes, &kp, decrypt)
	transpose64(&planes)
	out := make([][8]byte, len(in))
	for i := range out {
		binary.BigEndian.PutUint64(out[i][:], planes[i])
	}
	return out
}

// TestTranspose64 checks the bit-matrix transpose against a naive bit
// scatter and that it is an involution.
func TestTranspose64(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var a, orig, naive [64]uint64
	for i := range a {
		a[i] = rng.Uint64()
	}
	orig = a
	for r := 0; r < 64; r++ {
		for c := 0; c < 64; c++ {
			bit := orig[r] >> uint(63-c) & 1
			naive[c] |= bit << uint(63-r)
		}
	}
	transpose64(&a)
	if a != naive {
		t.Fatal("transpose64 disagrees with the naive bit scatter")
	}
	transpose64(&a)
	if a != orig {
		t.Fatal("transpose64 is not an involution")
	}
}

// TestBsSubkeyIdx checks the relabeled key schedule: for random keys,
// every subkey bit selected through bsSubkeyIdx must equal the bit the
// scalar key expansion computed.
func TestBsSubkeyIdx(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 64; trial++ {
		var k Key
		rng.Read(k[:])
		sub := referenceSubkeys(k)
		k64 := binary.BigEndian.Uint64(k[:])
		for r := 0; r < 16; r++ {
			for i := 0; i < 48; i++ {
				want := sub[r] >> uint(47-i) & 1
				got := k64 >> uint(63-bsSubkeyIdx[r][i]) & 1
				if got != want {
					t.Fatalf("key %x round %d subkey bit %d: schedule says plane %d (bit %d), want %d",
						k, r, i, bsSubkeyIdx[r][i], got, want)
				}
			}
		}
	}
}

// TestBitsliceKnownVectors runs the published DES known-answer vectors
// (the same ones TestDESKnownVectors uses) through a single bitslice
// lane, both directions.
func TestBitsliceKnownVectors(t *testing.T) {
	vectors := []struct{ key, plain, cipher string }{
		{"133457799bbcdff1", "0123456789abcdef", "85e813540f0ab405"},
		{"0e329232ea6d0d73", "8787878787878787", "0000000000000000"},
		{"0123456789abcdef", "4e6f772069732074", "3fa40e8a984d4815"},
		{"0101010101010101", "0000000000000000", "8ca64de9c1b123a7"},
		{"fedcba9876543210", "0123456789abcdef", "ed39d950fa74bcc4"},
	}
	for _, v := range vectors {
		key := keyFrom(mustHex(t, v.key))
		var plain, cipher [8]byte
		copy(plain[:], mustHex(t, v.plain))
		copy(cipher[:], mustHex(t, v.cipher))
		enc := bsCryptLanes([]Key{key}, [][8]byte{plain}, false)
		if enc[0] != cipher {
			t.Errorf("bitslice encrypt key %s plain %s: got %x, want %s", v.key, v.plain, enc[0], v.cipher)
		}
		dec := bsCryptLanes([]Key{key}, [][8]byte{cipher}, true)
		if dec[0] != plain {
			t.Errorf("bitslice decrypt key %s cipher %s: got %x, want %s", v.key, v.cipher, dec[0], v.plain)
		}
	}
}

// TestBitsliceMatchesScalar is the differential test of the tentpole: for
// every batch size 1..64, random per-lane keys (weak and semi-weak keys
// included) and random blocks, the bitsliced core must produce byte-for-
// byte the scalar core's output in both directions, and lanes beyond the
// fill must not perturb the live ones.
func TestBitsliceMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for n := 1; n <= bsLanes; n++ {
		keys := make([]Key, n)
		in := make([][8]byte, n)
		for i := range keys {
			switch {
			case i%17 == 5:
				// Exercise weak and semi-weak keys too: the cipher must
				// agree on them even though key generation avoids them.
				keys[i] = Key(weakKeys[rng.Intn(len(weakKeys))])
			default:
				rng.Read(keys[i][:])
				keys[i] = FixParity(keys[i])
			}
			rng.Read(in[i][:])
		}
		for _, decrypt := range []bool{false, true} {
			got := bsCryptLanes(keys, in, decrypt)
			for i := range got {
				var want [8]byte
				c := NewCipher(keys[i])
				if decrypt {
					c.DecryptBlock(want[:], in[i][:])
				} else {
					c.EncryptBlock(want[:], in[i][:])
				}
				if got[i] != want {
					t.Fatalf("n=%d lane %d decrypt=%v key %x block %x: bitslice %x, scalar %x",
						n, i, decrypt, keys[i], in[i], got[i], want)
				}
			}
		}
	}
}

// TestBitsliceRoundTrip encrypts and decrypts 64 full lanes and checks
// the round trip is the identity.
func TestBitsliceRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	keys := make([]Key, bsLanes)
	in := make([][8]byte, bsLanes)
	for i := range keys {
		rng.Read(keys[i][:])
		rng.Read(in[i][:])
	}
	ct := bsCryptLanes(keys, in, false)
	pt := bsCryptLanes(keys, ct, true)
	for i := range pt {
		if pt[i] != in[i] {
			t.Fatalf("lane %d: round trip %x -> %x -> %x", i, in[i], ct[i], pt[i])
		}
	}
}

// BenchmarkScalarDES is the scalar core's per-block cost, the baseline
// for BenchmarkBitsliceDES.
func BenchmarkScalarDES(b *testing.B) {
	var k Key
	rand.New(rand.NewSource(5)).Read(k[:])
	c := NewCipher(FixParity(k))
	var buf [8]byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.EncryptBlock(buf[:], buf[:])
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/block")
}

// BenchmarkBitsliceDES is the bitsliced core's per-block cost at full
// fill: one pass of 64 blocks, including the data transposes in and out
// (the key planes are built once, as batch.go does per batch).
func BenchmarkBitsliceDES(b *testing.B) {
	rng := rand.New(rand.NewSource(6))
	var planes, kp [64]uint64
	for i := range planes {
		planes[i] = rng.Uint64()
		kp[i] = rng.Uint64()
	}
	transpose64(&kp)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		transpose64(&planes)
		bsCrypt(&planes, &kp, false)
		transpose64(&planes)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*bsLanes), "ns/block")
}
