package des

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
)

// Batched sealed-message operations over the bitsliced core. A KDC under
// load holds many independent requests at once — each sealed under a
// different key — and the bitsliced cipher (bitslice.go) encrypts up to
// 64 such messages per pass. These entry points take a whole batch,
// decide whether the fill justifies the transpose overhead, and either
// drive the planes or fall back to the scalar path request by request.
//
// A bitsliced pass costs roughly the same regardless of how many lanes
// carry live data, so it beats the scalar core only when enough messages
// advance together: below bsBatchMin lanes the batch runs scalar. Both
// outcomes are counted (BatchCounters) so the KDC's metrics can show
// which engine is doing the work.
//
// Chaining stays in the block domain: each lane's PCBC or CBC state is a
// uint64 updated between passes, so only the cipher itself runs
// transposed. All scratch — key planes, data planes, chain values — is
// pooled and wiped on release; it is key and plaintext material, merely
// sliced sideways.

// SealRequest is one message of a SealBatch: a plaintext to seal under
// its own key. Sealed is set by the call, in a fresh buffer (the only
// per-request allocation), and holds exactly what Seal would produce.
//
// A request names its key either as Key or, when the caller already
// holds the expanded schedule (a kdb-owned long-lived key, or a
// per-request scratch Cipher used twice), as Cipher; a non-nil Cipher
// wins and Key is ignored. The scalar path then seals with the
// caller's schedule instead of expanding the key again.
type SealRequest struct {
	Key       Key
	Cipher    *Cipher
	Plaintext []byte
	Sealed    []byte
}

// UnsealRequest is one message of an UnsealBatch. On success Plaintext
// holds the recovered payload and Err is nil; any integrity failure
// leaves Plaintext nil and Err set to ErrIntegrity, exactly as Unseal
// would report it. Key and Cipher name the key as in SealRequest.
type UnsealRequest struct {
	Key        Key
	Cipher     *Cipher
	Ciphertext []byte
	Plaintext  []byte
	Err        error
}

// key returns the request's key, from its Cipher when one is carried.
func (r *SealRequest) key() Key {
	if r.Cipher != nil {
		return r.Cipher.key
	}
	return r.Key
}

// key returns the request's key, from its Cipher when one is carried.
func (r *UnsealRequest) key() Key {
	if r.Cipher != nil {
		return r.Cipher.key
	}
	return r.Key
}

// ChecksumRequest is one message of a CBCChecksumBatch: Sum is set to
// the DES-CBC message authentication code of Data under Key, identical
// to CBCChecksum's result.
type ChecksumRequest struct {
	Key  Key
	Data []byte
	Sum  uint64
}

// bsBatchMin is the lane count below which the batch entry points run
// the scalar path instead: a bitsliced pass costs about the same however
// many lanes are live (~36 scalar blocks' worth on the reference
// machine), so thin batches are faster block-at-a-time. Variable so
// tests can force either engine.
var bsBatchMin = 40

var (
	bitslicePassCount  atomic.Uint64
	scalarFallbackOpCt atomic.Uint64
)

// BatchCounters reports how the batch entry points have run since start:
// completed bitsliced passes, and individual requests served by the
// scalar fallback. The KDC exposes both through its metrics registry.
func BatchCounters() (bitslicePasses, scalarFallbackOps uint64) {
	return bitslicePassCount.Load(), scalarFallbackOpCt.Load()
}

// bsScratch is the reusable working set of one batch: lane keys and
// blocks (transposed in place into planes), per-lane chain state, and
// per-lane block counts. Released scratch is wiped before pooling.
type bsScratch struct {
	keys   [bsLanes]uint64
	planes [bsLanes]uint64
	chain  [bsLanes]uint64
	prev   [bsLanes]uint64
	blocks [bsLanes]int32
}

var bsScratchPool = sync.Pool{New: func() any { return new(bsScratch) }}

// release wipes the scratch — key planes, plaintext planes, and chain
// values are all secret-bearing — and returns it to the pool.
func (st *bsScratch) release() {
	*st = bsScratch{}
	bsScratchPool.Put(st)
}

// SealBatch seals every request's plaintext under its own key,
// encrypting up to 64 messages per bitsliced pass. Each request gets a
// fresh Sealed buffer byte-identical to what Seal would return.
//
//kerb:hotpath
func SealBatch(reqs []SealRequest) {
	for len(reqs) > bsLanes {
		sealLanes(reqs[:bsLanes])
		reqs = reqs[bsLanes:]
	}
	if len(reqs) > 0 {
		sealLanes(reqs)
	}
}

func sealLanes(reqs []SealRequest) {
	if len(reqs) < bsBatchMin {
		for i := range reqs {
			r := &reqs[i]
			if r.Cipher != nil {
				r.Sealed = r.Cipher.Seal(r.Plaintext)
			} else {
				r.Sealed = Seal(r.Key, r.Plaintext)
			}
		}
		scalarFallbackOpCt.Add(uint64(len(reqs)))
		return
	}
	st := bsScratchPool.Get().(*bsScratch)
	defer st.release()
	maxBlocks := 0
	for i := range reqs {
		buf := make([]byte, SealedLen(len(reqs[i].Plaintext)))
		binary.BigEndian.PutUint32(buf[0:4], uint32(len(reqs[i].Plaintext)))
		binary.BigEndian.PutUint32(buf[4:8], QuadChecksum(reqs[i].key(), reqs[i].Plaintext))
		copy(buf[sealHeaderLen:], reqs[i].Plaintext)
		reqs[i].Sealed = buf
		n := len(buf) / BlockSize
		st.blocks[i] = int32(n)
		if n > maxBlocks {
			maxBlocks = n
		}
		st.keys[i] = bsPackKey(reqs[i].key())
		st.chain[i] = st.keys[i] // PCBC chains from the key as IV
	}
	transpose64(&st.keys)
	for b := 0; b < maxBlocks; b++ {
		for i := range reqs {
			if b < int(st.blocks[i]) {
				p := binary.BigEndian.Uint64(reqs[i].Sealed[b*BlockSize:])
				st.prev[i] = p
				st.planes[i] = p ^ st.chain[i]
			}
		}
		transpose64(&st.planes)
		bsCrypt(&st.planes, &st.keys, false)
		bitslicePassCount.Add(1)
		transpose64(&st.planes)
		for i := range reqs {
			if b < int(st.blocks[i]) {
				ct := st.planes[i]
				binary.BigEndian.PutUint64(reqs[i].Sealed[b*BlockSize:], ct)
				st.chain[i] = st.prev[i] ^ ct // P(i) XOR C(i)
			}
		}
	}
}

// UnsealBatch decrypts and verifies every request's sealed ciphertext
// under its own key, decrypting up to 64 messages per bitsliced pass.
// Per-request failures are independent: a corrupt lane gets ErrIntegrity
// while the rest of the batch proceeds.
//
//kerb:hotpath
func UnsealBatch(reqs []UnsealRequest) {
	for len(reqs) > bsLanes {
		unsealLanes(reqs[:bsLanes])
		reqs = reqs[bsLanes:]
	}
	if len(reqs) > 0 {
		unsealLanes(reqs)
	}
}

func unsealLanes(reqs []UnsealRequest) {
	if len(reqs) < bsBatchMin {
		for i := range reqs {
			r := &reqs[i]
			if r.Cipher != nil {
				r.Plaintext, r.Err = r.Cipher.Unseal(r.Ciphertext)
			} else {
				r.Plaintext, r.Err = Unseal(r.Key, r.Ciphertext)
			}
		}
		scalarFallbackOpCt.Add(uint64(len(reqs)))
		return
	}
	st := bsScratchPool.Get().(*bsScratch)
	defer st.release()
	maxBlocks := 0
	for i := range reqs {
		ct := reqs[i].Ciphertext
		reqs[i].Plaintext, reqs[i].Err = nil, nil
		st.blocks[i] = 0
		if len(ct) < sealHeaderLen || len(ct)%BlockSize != 0 {
			reqs[i].Err = ErrIntegrity
			continue
		}
		reqs[i].Plaintext = make([]byte, len(ct))
		n := len(ct) / BlockSize
		st.blocks[i] = int32(n)
		if n > maxBlocks {
			maxBlocks = n
		}
		st.keys[i] = bsPackKey(reqs[i].key())
		st.chain[i] = st.keys[i]
	}
	transpose64(&st.keys)
	for b := 0; b < maxBlocks; b++ {
		for i := range reqs {
			if b < int(st.blocks[i]) {
				st.planes[i] = binary.BigEndian.Uint64(reqs[i].Ciphertext[b*BlockSize:])
			}
		}
		transpose64(&st.planes)
		bsCrypt(&st.planes, &st.keys, true)
		bitslicePassCount.Add(1)
		transpose64(&st.planes)
		for i := range reqs {
			if b < int(st.blocks[i]) {
				ct := binary.BigEndian.Uint64(reqs[i].Ciphertext[b*BlockSize:])
				p := st.planes[i] ^ st.chain[i]
				binary.BigEndian.PutUint64(reqs[i].Plaintext[b*BlockSize:], p)
				st.chain[i] = p ^ ct
			}
		}
	}
	// Structure checks, mirroring Unseal exactly.
	for i := range reqs {
		if st.blocks[i] == 0 {
			continue
		}
		buf := reqs[i].Plaintext
		n := binary.BigEndian.Uint32(buf[0:4])
		if int(n) > len(buf)-sealHeaderLen {
			reqs[i].Plaintext, reqs[i].Err = nil, ErrIntegrity
			continue
		}
		plaintext := buf[sealHeaderLen : sealHeaderLen+int(n)]
		if !ChecksumEqual(QuadChecksum(reqs[i].key(), plaintext), binary.BigEndian.Uint32(buf[4:8])) {
			reqs[i].Plaintext, reqs[i].Err = nil, ErrIntegrity
			continue
		}
		ok := true
		for _, b := range buf[sealHeaderLen+int(n):] {
			if b != 0 {
				ok = false
			}
		}
		if !ok {
			reqs[i].Plaintext, reqs[i].Err = nil, ErrIntegrity
			continue
		}
		reqs[i].Plaintext = plaintext
	}
}

// CBCChecksumBatch computes every request's DES-CBC message
// authentication code under its own key, up to 64 messages per
// bitsliced pass. Short trailing blocks are zero-extended, as
// CBCChecksum does.
//
//kerb:hotpath
func CBCChecksumBatch(reqs []ChecksumRequest) {
	for len(reqs) > bsLanes {
		checksumLanes(reqs[:bsLanes])
		reqs = reqs[bsLanes:]
	}
	if len(reqs) > 0 {
		checksumLanes(reqs)
	}
}

func checksumLanes(reqs []ChecksumRequest) {
	if len(reqs) < bsBatchMin {
		for i := range reqs {
			reqs[i].Sum = CBCChecksum(reqs[i].Key, reqs[i].Data)
		}
		scalarFallbackOpCt.Add(uint64(len(reqs)))
		return
	}
	st := bsScratchPool.Get().(*bsScratch)
	defer st.release()
	maxBlocks := 0
	for i := range reqs {
		n := (len(reqs[i].Data) + BlockSize - 1) / BlockSize
		st.blocks[i] = int32(n)
		if n > maxBlocks {
			maxBlocks = n
		}
		st.keys[i] = bsPackKey(reqs[i].Key)
		st.chain[i] = st.keys[i] // CBC chains from the key as IV
	}
	transpose64(&st.keys)
	for b := 0; b < maxBlocks; b++ {
		for i := range reqs {
			if b < int(st.blocks[i]) {
				data := reqs[i].Data
				var w uint64
				if (b+1)*BlockSize <= len(data) {
					w = binary.BigEndian.Uint64(data[b*BlockSize:])
				} else {
					var last [BlockSize]byte
					copy(last[:], data[b*BlockSize:])
					w = binary.BigEndian.Uint64(last[:])
				}
				st.planes[i] = w ^ st.chain[i]
			}
		}
		transpose64(&st.planes)
		bsCrypt(&st.planes, &st.keys, false)
		bitslicePassCount.Add(1)
		transpose64(&st.planes)
		for i := range reqs {
			if b < int(st.blocks[i]) {
				st.chain[i] = st.planes[i] // CBC: the MAC is the last ciphertext
			}
		}
	}
	for i := range reqs {
		reqs[i].Sum = st.chain[i]
	}
}
