package a

import (
	"sync"
	"sync/atomic"
	"unsafe"
)

// Cipher mimics des.Cipher: the expanded schedule carries its key.
type Cipher struct {
	ks  [32]uint32
	key Key
}

func newCipher(k Key) *Cipher { return &Cipher{key: k} }

// --- package-level key state: reported ---

// schedCache reproduces the deleted des.SchedCache: a sync.Map from raw
// keys to their schedules, evicting without wiping.
type schedCache struct {
	m     sync.Map // Key -> *Cipher
	count atomic.Int64
}

func (s *schedCache) For(key Key) *Cipher {
	if c, ok := s.m.Load(key); ok {
		return c.(*Cipher)
	}
	c, _ := s.m.LoadOrStore(key, newCipher(key))
	s.count.Add(1)
	return c.(*Cipher)
}

var sched = &schedCache{} // want `package-level variable sched \(\*schedCache\) holds key material \(Key\)`

var lastKey Key // want `package-level variable lastKey \(Key\) holds key material`

var schedules = map[string]*Cipher{} // want `package-level variable schedules \(map\[string\]\*Cipher\) holds key material \(Key\)`

var lastCipher sync.Map // want `package-level variable lastCipher \(sync\.Map\) holds key material \(Key\)`

func remember(k Key) { lastCipher.Store("last", newCipher(k)) }

var current atomic.Pointer[Cipher] // want `package-level variable current .* holds key material \(Key\)`

// --- shapes that must stay silent ---

// entryRec is a schedule cached on a value the program allocates,
// filled once by CAS, living and dying with that value — no
// package-level variable reaches it (kdb's hot-key table, a field of
// each Database, is silent for the same reason).
type entryRec struct {
	EncKey   []byte
	keycache unsafe.Pointer // *Cipher
}

func keyCipher(e *entryRec, plain []byte) *Cipher {
	if p := atomic.LoadPointer(&e.keycache); p != nil {
		return (*Cipher)(p)
	}
	var k Key
	copy(k[:], plain)
	c := newCipher(k)
	clear(k[:])
	atomic.CompareAndSwapPointer(&e.keycache, nil, unsafe.Pointer(c))
	return (*Cipher)(atomic.LoadPointer(&e.keycache))
}

// weakTable holds public constants shaped like keys, not key material.
var weakTable = [][8]byte{{0x01, 0x01, 0x01, 0x01, 0x01, 0x01, 0x01, 0x01}}

// counters is a sync.Map that stores only counts.
var counters sync.Map

func count(name string) { counters.Store(name, 1) }

// scratchPool hands out scratch schedules that are wiped on release.
var scratchPool = sync.Pool{New: func() any { return new(Cipher) }}

// stackSeal expands into a stack Cipher and wipes it after use.
func stackSeal(k Key, msg []byte) []byte {
	var c Cipher
	c.key = k
	out := seal(c.key, msg)
	c = Cipher{}
	use(c, weakTable)
	return out
}
