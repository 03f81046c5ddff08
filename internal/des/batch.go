package des

import "sync/atomic"

// Batched sealed-message operations. A KDC under load holds many
// independent requests at once, each sealed under a different key, and
// its staged pipeline hands them over a whole batch at a time. Each
// request is sealed or unsealed by the one scalar core, exactly as Seal
// and Unseal would do it, so the batch calls are plain loops: they exist
// so the pipeline has one call per DES phase and so the lane-ops can be
// counted.

// SealRequest is one message of a SealBatch: a plaintext to seal under
// its own key. Sealed is set by the call, in a fresh buffer (the only
// per-request allocation), and holds exactly what Seal would produce.
//
// A request names its key either as Key or, when the caller already
// holds the expanded schedule (a kdb-owned long-lived key, or a
// per-request scratch Cipher used twice), as Cipher; a non-nil Cipher
// wins and Key is ignored, so the schedule is not expanded again.
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

var laneOps atomic.Uint64

// BatchCounters reports the requests the batch entry points have served
// since start. The first result, once a count of bitsliced passes, is
// always 0: that engine is gone, and the result stays only because the
// benchmark harness (perfbench) reads it. The KDC exposes the lane-op
// count through its metrics registry.
func BatchCounters() (bitslicePasses, scalarFallbackOps uint64) {
	return 0, laneOps.Load()
}

// SealBatch seals every request's plaintext under its own key. Each
// request gets a fresh Sealed buffer byte-identical to what Seal would
// return.
//
//kerb:hotpath
func SealBatch(reqs []SealRequest) {
	for i := range reqs {
		r := &reqs[i]
		if r.Cipher != nil {
			r.Sealed = r.Cipher.Seal(r.Plaintext)
		} else {
			r.Sealed = Seal(r.Key, r.Plaintext)
		}
	}
	laneOps.Add(uint64(len(reqs)))
}

// UnsealBatch decrypts and verifies every request's sealed ciphertext
// under its own key. Per-request failures are independent: a corrupt
// lane gets ErrIntegrity while the rest of the batch proceeds.
//
//kerb:hotpath
func UnsealBatch(reqs []UnsealRequest) {
	for i := range reqs {
		r := &reqs[i]
		if r.Cipher != nil {
			r.Plaintext, r.Err = r.Cipher.Unseal(r.Ciphertext)
		} else {
			r.Plaintext, r.Err = Unseal(r.Key, r.Ciphertext)
		}
	}
	laneOps.Add(uint64(len(reqs)))
}
