// Package a is the path-sensitive half of the deferwipe fixture:
// every // want here is a path that leaks although a wipe
// exists; every silent case is a shape a syntactic "more than one
// return needs a defer" rule would have flagged falsely (or a known
// false-positive shape that must stay silent). Package b holds key
// material that is never wiped at all.
package a

import "errors"

// Key mimics des.Key.
type Key [8]byte

var errBad = errors.New("bad")

func use(...any)        {}
func fill(b []byte)     { _ = b }
func derive() Key       { var k Key; k[0] = 1; return k }
func check(k Key) error { return nil }

// earlyReturn leaks on the error path: the inline clear is only on the
// fallthrough path.
func earlyReturn(cond bool) error {
	k := derive() // want `reaches a function exit un-zeroized`
	if cond {
		return errBad // leaks k
	}
	use(k)
	clear(k[:])
	return nil
}

// panicPath leaks through the explicit panic edge.
func panicPath(err error) {
	k := derive() // want `reaches a function exit un-zeroized`
	use(k)
	if err != nil {
		panic(err) // leaks k
	}
	clear(k[:])
}

// branchMergeLeak: one arm wipes, the other does not, and the function
// has a single return — a syntactic rule (inline wipe + one return =
// fine) misses exactly this.
func branchMergeLeak(cond bool) {
	k := derive() // want `reaches a function exit un-zeroized`
	if cond {
		clear(k[:])
	} else {
		use(k)
	}
}

// condDefer: the deferred wipe is only registered on one branch.
func condDefer(cond bool) error {
	k := derive() // want `reaches a function exit un-zeroized`
	if cond {
		defer clear(k[:])
		use(k)
		return nil
	}
	use(k)
	return errBad
}

// wipedThenReused: the wipe happens, but the buffer is re-exposed
// afterwards and reaches the exit hot.
func wipedThenReused() {
	k := derive() // want `reaches a function exit un-zeroized`
	use(k)
	clear(k[:])
	k = derive()
	use(k)
}

// --- shapes that must stay silent ---

// inlineBothPaths: inline wipes dominating every return. The old
// syntactic rule demanded defer here; the CFG proves it safe.
func inlineBothPaths(cond bool) int {
	var k Key
	k = derive()
	use(k)
	if cond {
		clear(k[:])
		return 1
	}
	clear(k[:])
	return 0
}

// deferred: the canonical form.
func deferred(cond bool) int {
	k := derive()
	defer clear(k[:])
	use(k)
	if cond {
		return 1
	}
	return 0
}

// deferThenReassign: a deferred wipe covers later re-assignments too —
// the defer runs at exit, after the last store.
func deferThenReassign() {
	k := derive()
	defer clear(k[:])
	use(k)
	k = derive()
	use(k)
}

// reset clears its argument but carries no wipe word in its name; the
// same-package summary layer must still recognize it.
func reset(b []byte) { clear(b) }

// viaQuietHelper: wiped through the summary-recognized helper.
func viaQuietHelper() {
	k := derive()
	use(k)
	reset(k[:])
}

// resetChain forwards to reset; summaries compose through the fixpoint.
func resetChain(b []byte) { reset(b) }

func viaChainedHelper() {
	k := derive()
	use(k)
	resetChain(k[:])
}

// deferHelper: a deferred summary-recognized helper covers every path.
func deferHelper(cond bool) int {
	k := derive()
	defer reset(k[:])
	use(k)
	if cond {
		return 1
	}
	return 0
}

// wipeLoop: the explicit zeroing loop counts as a wipe of the whole
// buffer (a zero-length buffer holds no secret, so the zero-iteration
// path is covered by construction).
func wipeLoop() {
	sessionKey := make([]byte, 8)
	fill(sessionKey)
	for i := range sessionKey {
		sessionKey[i] = 0
	}
}

// escapes: returned values are the caller's to wipe; stored values are
// the store's. deferwipe must not second-guess ownership transfer.
func escapes(cond bool) Key {
	k := derive()
	use(k)
	return k
}

// neverWiped is reported once, as not zeroized at all, and not also as
// a path leak.
func neverWiped() {
	k := derive() // want `key material "k" is not zeroized`
	use(k)
}

// lenOnly: len/cap reads carry no secret out; a candidate whose only
// "use" after the wipe is len() must stay silent.
func lenOnly(cond bool) error {
	k := derive()
	defer clear(k[:])
	if cond {
		return errBad
	}
	if len(k) != 8 {
		return errBad
	}
	use(k)
	return nil
}

// ignored: a justified suppression silences the finding.
func ignored(cond bool) error {
	k := derive() //kerb:ignore deferwipe -- fixture: exercising the suppression path
	if cond {
		return errBad
	}
	clear(k[:])
	return nil
}
