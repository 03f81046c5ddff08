package des

import (
	"bytes"
	"math/rand"
	"testing"
)

// randomSealReqs makes n requests under random keys. Every third one
// names its key by a caller-owned Cipher, with Key left zero, so the
// batch paths must take the key from the Cipher.
func randomSealReqs(rng *rand.Rand, n int) []SealRequest {
	reqs := make([]SealRequest, n)
	for i := range reqs {
		rng.Read(reqs[i].Key[:])
		reqs[i].Key = FixParity(reqs[i].Key)
		if i%3 == 2 {
			reqs[i].Cipher, reqs[i].Key = NewCipher(reqs[i].Key), Key{}
		}
		// Ragged lengths, including empty and non-block-aligned.
		pt := make([]byte, rng.Intn(101))
		rng.Read(pt)
		reqs[i].Plaintext = pt
	}
	return reqs
}

// reqKey returns the key a request names, from its Cipher when it
// carries one.
func reqKey(r *SealRequest) Key {
	if r.Cipher != nil {
		return r.Cipher.Key()
	}
	return r.Key
}

// TestSealBatchMatchesSeal is the seal differential: at every width
// 0..130, with ragged plaintexts and every third lane named by Cipher,
// SealBatch must produce exactly Seal's bytes.
func TestSealBatchMatchesSeal(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for n := 0; n <= 130; n++ {
		reqs := randomSealReqs(rng, n)
		SealBatch(reqs)
		for i := range reqs {
			r := &reqs[i]
			if want := Seal(reqKey(r), r.Plaintext); !bytes.Equal(r.Sealed, want) {
				t.Fatalf("n=%d lane %d: SealBatch %x, Seal %x", n, i, r.Sealed, want)
			}
		}
	}
}

// TestSealBatchScalarFallback checks that every lane of a batch, thin or
// wide, is served by the scalar core: BatchCounters reports no bitsliced
// pass and exactly one lane-op per sealed or unsealed request.
func TestSealBatchScalarFallback(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, n := range []int{1, 8, 64, 130} {
		passes0, ops0 := BatchCounters()
		sreqs := randomSealReqs(rng, n)
		SealBatch(sreqs)
		ureqs := make([]UnsealRequest, n)
		for i := range ureqs {
			ureqs[i].Key, ureqs[i].Cipher = sreqs[i].Key, sreqs[i].Cipher
			ureqs[i].Ciphertext = sreqs[i].Sealed
		}
		UnsealBatch(ureqs)
		passes, ops := BatchCounters()
		if passes != passes0 || passes != 0 {
			t.Fatalf("n=%d: bitslice passes %d -> %d, want 0", n, passes0, passes)
		}
		if got := ops - ops0; got != uint64(2*n) {
			t.Fatalf("n=%d: %d lane-ops counted, want %d", n, got, 2*n)
		}
		for i := range ureqs {
			if ureqs[i].Err != nil || !bytes.Equal(ureqs[i].Plaintext, sreqs[i].Plaintext) {
				t.Fatalf("n=%d lane %d: got (%x, %v), want %x", n, i, ureqs[i].Plaintext, ureqs[i].Err, sreqs[i].Plaintext)
			}
		}
	}
}

// TestSealBatchChunks checks a batch far wider than a UDP drain, with
// runs of lanes sharing one caller-owned Cipher (as a KDC's lanes share
// the TGS key), seals every lane correctly and leaves the shared
// schedules usable.
func TestSealBatchChunks(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	shared := randomSealReqs(rng, 3)
	for i := range shared {
		if shared[i].Cipher == nil {
			shared[i].Cipher = NewCipher(shared[i].Key)
		}
	}
	reqs := randomSealReqs(rng, 1000)
	for i := range reqs {
		if i%4 == 0 {
			reqs[i].Cipher = shared[(i/4)%len(shared)].Cipher
		}
	}
	SealBatch(reqs)
	for i := range reqs {
		r := &reqs[i]
		if want := Seal(reqKey(r), r.Plaintext); !bytes.Equal(r.Sealed, want) {
			t.Fatalf("lane %d: SealBatch %x, Seal %x", i, r.Sealed, want)
		}
	}
}

// TestUnsealBatch is the unseal differential: at every width 0..130,
// UnsealBatch must give each lane exactly Unseal's plaintext and error,
// with corrupt, truncated and wrong-key lanes failing alone among good
// neighbours.
func TestUnsealBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for n := 0; n <= 130; n++ {
		sreqs := randomSealReqs(rng, n)
		SealBatch(sreqs)
		ureqs := make([]UnsealRequest, n)
		bad := make([]bool, n)
		for i := range sreqs {
			s, u := &sreqs[i], &ureqs[i]
			u.Key, u.Cipher, u.Ciphertext = s.Key, s.Cipher, s.Sealed
			// Sabotage some lanes: flipped byte, truncation (to any
			// length, aligned or not), wrong key.
			bad[i] = true
			switch i % 5 {
			case 1:
				u.Ciphertext = append([]byte(nil), u.Ciphertext...)
				u.Ciphertext[rng.Intn(len(u.Ciphertext))] ^= 0x80
			case 3:
				u.Ciphertext = u.Ciphertext[:rng.Intn(len(u.Ciphertext))]
			case 4:
				u.Cipher = nil
				rng.Read(u.Key[:])
			default:
				bad[i] = false
			}
		}
		UnsealBatch(ureqs)
		for i := range ureqs {
			u := &ureqs[i]
			var want []byte
			var wantErr error
			if u.Cipher != nil {
				want, wantErr = u.Cipher.Unseal(u.Ciphertext)
			} else {
				want, wantErr = Unseal(u.Key, u.Ciphertext)
			}
			if !bytes.Equal(u.Plaintext, want) || u.Err != wantErr || (u.Plaintext == nil) != (want == nil) {
				t.Fatalf("n=%d lane %d: UnsealBatch (%x, %v), Unseal (%x, %v)", n, i, u.Plaintext, u.Err, want, wantErr)
			}
			if bad[i] {
				if u.Err != ErrIntegrity {
					t.Fatalf("n=%d lane %d: sabotaged lane unsealed: err=%v", n, i, u.Err)
				}
			} else if u.Err != nil || !bytes.Equal(u.Plaintext, sreqs[i].Plaintext) {
				t.Fatalf("n=%d lane %d: got (%x, %v), want %x", n, i, u.Plaintext, u.Err, sreqs[i].Plaintext)
			}
		}
	}
}

// TestSealBatchAllocs guards SealBatch's allocation budget: one output
// buffer per request and nothing else — Cipher lanes reuse their
// schedule and Key lanes expand theirs on the stack.
func TestSealBatchAllocs(t *testing.T) {
	const n = 64
	rng := rand.New(rand.NewSource(15))
	reqs := randomSealReqs(rng, n)
	allocs := testing.AllocsPerRun(100, func() {
		SealBatch(reqs)
	})
	if allocs > n {
		t.Fatalf("SealBatch of %d: %.1f allocs/run, want <= %d (one output buffer per request)",
			n, allocs, n)
	}
}

// TestUnsealBatchAllocs guards UnsealBatch's allocation budget: one
// plaintext buffer per request and nothing else.
func TestUnsealBatchAllocs(t *testing.T) {
	const n = 64
	rng := rand.New(rand.NewSource(16))
	sreqs := randomSealReqs(rng, n)
	SealBatch(sreqs)
	ureqs := make([]UnsealRequest, n)
	for i := range ureqs {
		ureqs[i].Key, ureqs[i].Cipher = sreqs[i].Key, sreqs[i].Cipher
		ureqs[i].Ciphertext = sreqs[i].Sealed
	}
	allocs := testing.AllocsPerRun(100, func() {
		UnsealBatch(ureqs)
	})
	if allocs > n {
		t.Fatalf("UnsealBatch of %d: %.1f allocs/run, want <= %d (one plaintext buffer per request)",
			n, allocs, n)
	}
}
