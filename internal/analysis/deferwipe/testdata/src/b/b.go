// Package b is the "not zeroized" half of the deferwipe fixture: key
// material no zeroizer touches, which candidates count as key material,
// and which uses hand the duty to wipe to someone else.
package b

// Key mimics des.Key.
type Key [8]byte

func use(...any)  {}
func derive() Key { var k Key; k[0] = 1; return k }

type entry struct{ key Key }

var vault = map[string]entry{}

// leak materializes a key and drops it on the floor.
func leak() {
	var k Key // want `key material "k" is not zeroized`
	use(k)
}

// leakBuf: a named key buffer, same rule.
func leakBuf() {
	keyBytes := make([]byte, 8) // want `key material "keyBytes" is not zeroized`
	use(keyBytes)
}

// clearedSingleExit: an inline clear with one exit point is enough.
func clearedSingleExit() int {
	var k Key
	use(k)
	clear(k[:])
	return 0
}

// loopWiped: the explicit zeroing loop also counts.
func loopWiped() {
	sessionKey := make([]byte, 8)
	use(sessionKey)
	for i := range sessionKey {
		sessionKey[i] = 0
	}
}

// zeroAssign: overwriting with the zero value counts.
func zeroAssign() {
	var k Key
	use(k)
	k = Key{}
}

// multiExitInline: inline wipes on both return paths cover every exit.
func multiExitInline(cond bool) int {
	var k Key
	use(k)
	if cond {
		clear(k[:])
		return 1
	}
	clear(k[:])
	return 0
}

// multiExitDefer: defer covers every path.
func multiExitDefer(cond bool) int {
	var k Key
	defer clear(k[:])
	use(k)
	if cond {
		return 1
	}
	return 0
}

// wipeHelper: a named wiper function is recognized.
func wipeKey(b []byte) { clear(b) }

func viaHelper() {
	var k Key
	use(k)
	wipeKey(k[:])
}

// --- cases that must stay silent (false-positive shapes) ---

// returned: the key's whole point is to outlive the call.
func returned() Key {
	var k Key
	use(k)
	return k
}

// stored: cache/struct population transfers ownership — the cache is
// the long-lived owner and wipes on eviction.
func stored(name string) {
	var k Key
	use(k)
	vault[name] = entry{key: k}
}

// pointerOut: handing out &k transfers the duty to wipe.
func pointerOut(fill func(*Key)) {
	var k Key
	fill(&k)
	use(k)
}

// publicBuf: byte buffers without key naming or typing are not key
// material.
func publicBuf() {
	data := make([]byte, 64)
	use(data)
}

// ignoredNeverWiped: a justified suppression silences the finding.
func ignoredNeverWiped() {
	var k Key //kerb:ignore deferwipe -- fixture: lifetime owned by caller convention
	use(k)
}

func unseal(enc []byte) []byte { return append([]byte(nil), enc...) }

// contaminated reproduces the unseal-then-copy miss: plain's name and
// type say nothing about keys, but copying it into key material means
// it holds the same secret — it must be wiped like the key itself.
func contaminated(enc []byte) (Key, error) {
	plain := unseal(enc) // want `key material "plain" is not zeroized`
	if len(plain) != 8 {
		return Key{}, errTooShort
	}
	var k Key
	copy(k[:], plain)
	return k, nil
}

// contaminatedWiped is the fixed shape: a deferred clear covers every
// return path of the contaminated buffer.
func contaminatedWiped(enc []byte) (Key, error) {
	plain := unseal(enc)
	defer clear(plain)
	if len(plain) != 8 {
		return Key{}, errTooShort
	}
	var k Key
	copy(k[:], plain)
	return k, nil
}

// contaminatedChain: contamination is transitive through copy chains.
func contaminatedChain(enc []byte) Key {
	stage := unseal(enc)   // want `key material "stage" is not zeroized`
	buf := make([]byte, 8) // want `key material "buf" is not zeroized`
	copy(buf, stage)
	var k Key
	copy(k[:], buf)
	return k
}

var errTooShort = (error)(nil)

// inLiteral: a candidate declared in a function literal is judged by
// the same rule, and a wipe inside the literal satisfies it.
func inLiteral() {
	leaky := func() {
		k := derive() // want `key material "k" is not zeroized`
		use(k)
	}
	wiped := func() {
		k := derive()
		defer clear(k[:])
		use(k)
	}
	leaky()
	wiped()
}
