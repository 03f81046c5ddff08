package des

import (
	"bytes"
	"math/rand"
	"testing"
)

// forceBitslice drops the batch threshold so even one-lane batches run
// the bitsliced engine, restoring it when the test ends.
func forceBitslice(t *testing.T) {
	t.Helper()
	old := bsBatchMin
	bsBatchMin = 1
	t.Cleanup(func() { bsBatchMin = old })
}

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

// TestSealBatchMatchesSeal checks, for every batch size 1..64 on the
// bitsliced engine, that SealBatch output is byte-identical to Seal's.
func TestSealBatchMatchesSeal(t *testing.T) {
	forceBitslice(t)
	rng := rand.New(rand.NewSource(10))
	for n := 1; n <= bsLanes; n++ {
		reqs := randomSealReqs(rng, n)
		SealBatch(reqs)
		for i := range reqs {
			want := Seal(reqs[i].key(), reqs[i].Plaintext)
			if !bytes.Equal(reqs[i].Sealed, want) {
				t.Fatalf("n=%d lane %d: SealBatch %x, Seal %x", n, i, reqs[i].Sealed, want)
			}
		}
	}
}

// TestSealBatchScalarFallback checks the thin-batch path produces the
// same bytes as the bitsliced one.
func TestSealBatchScalarFallback(t *testing.T) {
	old := bsBatchMin
	bsBatchMin = 1 << 20
	defer func() { bsBatchMin = old }()
	rng := rand.New(rand.NewSource(11))
	reqs := randomSealReqs(rng, 8)
	SealBatch(reqs)
	for i := range reqs {
		want := Seal(reqs[i].key(), reqs[i].Plaintext)
		if !bytes.Equal(reqs[i].Sealed, want) {
			t.Fatalf("lane %d: fallback SealBatch %x, Seal %x", i, reqs[i].Sealed, want)
		}
	}
}

// TestSealBatchChunks checks batches larger than the lane count are
// split and every chunk still seals correctly.
func TestSealBatchChunks(t *testing.T) {
	forceBitslice(t)
	rng := rand.New(rand.NewSource(12))
	reqs := randomSealReqs(rng, 3*bsLanes/2)
	SealBatch(reqs)
	for i := range reqs {
		want := Seal(reqs[i].key(), reqs[i].Plaintext)
		if !bytes.Equal(reqs[i].Sealed, want) {
			t.Fatalf("lane %d: SealBatch %x, Seal %x", i, reqs[i].Sealed, want)
		}
	}
}

// TestUnsealBatch checks batched unsealing across sizes: valid lanes
// recover their plaintext, corrupted or truncated lanes fail with
// ErrIntegrity without disturbing their neighbours.
func TestUnsealBatch(t *testing.T) {
	forceBitslice(t)
	rng := rand.New(rand.NewSource(13))
	for n := 1; n <= bsLanes; n++ {
		sreqs := randomSealReqs(rng, n)
		SealBatch(sreqs)
		ureqs := make([]UnsealRequest, n)
		for i := range ureqs {
			ureqs[i].Key, ureqs[i].Cipher = sreqs[i].Key, sreqs[i].Cipher
			ureqs[i].Ciphertext = sreqs[i].Sealed
		}
		// Sabotage a few lanes: flipped byte, truncation, wrong key.
		bad := map[int]bool{}
		if n >= 2 {
			ureqs[1].Ciphertext = append([]byte(nil), ureqs[1].Ciphertext...)
			ureqs[1].Ciphertext[len(ureqs[1].Ciphertext)-1] ^= 0x80
			bad[1] = true
		}
		if n >= 5 {
			ureqs[4].Ciphertext = ureqs[4].Ciphertext[:4]
			bad[4] = true
		}
		if n >= 9 {
			ureqs[8].Cipher = nil
			rng.Read(ureqs[8].Key[:])
			bad[8] = true
		}
		UnsealBatch(ureqs)
		for i := range ureqs {
			if bad[i] {
				if ureqs[i].Err == nil || ureqs[i].Plaintext != nil {
					t.Fatalf("n=%d lane %d: corrupt lane unsealed: err=%v", n, i, ureqs[i].Err)
				}
				continue
			}
			if ureqs[i].Err != nil {
				t.Fatalf("n=%d lane %d: unexpected error %v", n, i, ureqs[i].Err)
			}
			if !bytes.Equal(ureqs[i].Plaintext, sreqs[i].Plaintext) {
				t.Fatalf("n=%d lane %d: got %x, want %x", n, i, ureqs[i].Plaintext, sreqs[i].Plaintext)
			}
		}
	}
}

// TestCBCChecksumBatchMatchesScalar checks batched CBC MACs across
// sizes and ragged lengths against the scalar CBCChecksum.
func TestCBCChecksumBatchMatchesScalar(t *testing.T) {
	forceBitslice(t)
	rng := rand.New(rand.NewSource(14))
	for n := 1; n <= bsLanes; n++ {
		reqs := make([]ChecksumRequest, n)
		for i := range reqs {
			rng.Read(reqs[i].Key[:])
			reqs[i].Key = FixParity(reqs[i].Key)
			data := make([]byte, rng.Intn(101))
			rng.Read(data)
			reqs[i].Data = data
		}
		CBCChecksumBatch(reqs)
		for i := range reqs {
			if want := CBCChecksum(reqs[i].Key, reqs[i].Data); reqs[i].Sum != want {
				t.Fatalf("n=%d lane %d len %d: batch %016x, scalar %016x",
					n, i, len(reqs[i].Data), reqs[i].Sum, want)
			}
		}
	}
}

// TestSealBatchAllocs guards SealBatch's allocation budget: one output
// buffer per request and nothing else — the planes, chains, and key
// schedules all come from pooled scratch.
func TestSealBatchAllocs(t *testing.T) {
	forceBitslice(t)
	rng := rand.New(rand.NewSource(15))
	reqs := randomSealReqs(rng, bsLanes)
	SealBatch(reqs) // warm the scratch pool
	allocs := testing.AllocsPerRun(100, func() {
		SealBatch(reqs)
	})
	if allocs > float64(bsLanes) {
		t.Fatalf("SealBatch of %d: %.1f allocs/run, want <= %d (one output buffer per request)",
			bsLanes, allocs, bsLanes)
	}
}

// TestUnsealBatchAllocs guards UnsealBatch's allocation budget: one
// plaintext buffer per request and nothing else.
func TestUnsealBatchAllocs(t *testing.T) {
	forceBitslice(t)
	rng := rand.New(rand.NewSource(16))
	sreqs := randomSealReqs(rng, bsLanes)
	SealBatch(sreqs)
	ureqs := make([]UnsealRequest, bsLanes)
	for i := range ureqs {
		ureqs[i].Key, ureqs[i].Cipher = sreqs[i].Key, sreqs[i].Cipher
		ureqs[i].Ciphertext = sreqs[i].Sealed
	}
	UnsealBatch(ureqs)
	allocs := testing.AllocsPerRun(100, func() {
		UnsealBatch(ureqs)
	})
	if allocs > float64(bsLanes) {
		t.Fatalf("UnsealBatch of %d: %.1f allocs/run, want <= %d (one plaintext buffer per request)",
			bsLanes, allocs, bsLanes)
	}
}

// TestCBCChecksumBatchAllocs guards the zero-allocation batch MAC path.
func TestCBCChecksumBatchAllocs(t *testing.T) {
	forceBitslice(t)
	rng := rand.New(rand.NewSource(17))
	reqs := make([]ChecksumRequest, bsLanes)
	for i := range reqs {
		rng.Read(reqs[i].Key[:])
		data := make([]byte, 40)
		rng.Read(data)
		reqs[i].Data = data
	}
	CBCChecksumBatch(reqs)
	allocs := testing.AllocsPerRun(100, func() {
		CBCChecksumBatch(reqs)
	})
	if allocs != 0 {
		t.Fatalf("CBCChecksumBatch of %d: %.1f allocs/run, want 0", bsLanes, allocs)
	}
}

// TestBatchScratchWiped checks the keyzero contract on pooled scratch:
// after a batch completes, released scratch holds no key or plaintext
// planes.
func TestBatchScratchWiped(t *testing.T) {
	forceBitslice(t)
	rng := rand.New(rand.NewSource(18))
	reqs := randomSealReqs(rng, bsLanes)
	SealBatch(reqs)
	// The pool is not deterministic in general, but in a single
	// goroutine Get returns the just-Put scratch.
	st := bsScratchPool.Get().(*bsScratch)
	defer bsScratchPool.Put(st)
	if *st != (bsScratch{}) {
		t.Fatal("released bitslice scratch still holds data; key/plaintext planes must be wiped")
	}
}

// BenchmarkSealBatch64 measures sealing 64 independent 64-byte
// plaintexts under distinct keys through the bitsliced engine, the shape
// of a KDC flushing a full gather window; per-message cost is the
// comparable number to BenchmarkSeal's scalar path.
func BenchmarkSealBatch64(b *testing.B) {
	old := bsBatchMin
	bsBatchMin = 1
	defer func() { bsBatchMin = old }()
	rng := rand.New(rand.NewSource(19))
	reqs := make([]SealRequest, bsLanes)
	for i := range reqs {
		rng.Read(reqs[i].Key[:])
		reqs[i].Key = FixParity(reqs[i].Key)
		pt := make([]byte, 64)
		rng.Read(pt)
		reqs[i].Plaintext = pt
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		SealBatch(reqs)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*bsLanes), "ns/msg")
}

// BenchmarkSealSerial64 is the scalar baseline for BenchmarkSealBatch64:
// the same 64 messages sealed one at a time.
func BenchmarkSealSerial64(b *testing.B) {
	rng := rand.New(rand.NewSource(19))
	reqs := make([]SealRequest, bsLanes)
	for i := range reqs {
		rng.Read(reqs[i].Key[:])
		reqs[i].Key = FixParity(reqs[i].Key)
		pt := make([]byte, 64)
		rng.Read(pt)
		reqs[i].Plaintext = pt
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for j := range reqs {
			reqs[j].Sealed = Seal(reqs[j].Key, reqs[j].Plaintext)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*bsLanes), "ns/msg")
}
