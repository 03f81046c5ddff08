package des

import (
	"testing"
	"testing/quick"
)

func TestFixParity(t *testing.T) {
	k := FixParity(Key{0, 1, 2, 3, 0xfe, 0xff, 0x80, 0x7f})
	if !HasOddParity(k) {
		t.Errorf("FixParity result %x lacks odd parity", k)
	}
	// Idempotent.
	if FixParity(k) != k {
		t.Error("FixParity not idempotent")
	}
}

func TestOddParityProperty(t *testing.T) {
	f := func(k [8]byte) bool { return HasOddParity(FixParity(Key(k))) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestIsWeak(t *testing.T) {
	if !IsWeak(Key{0x01, 0x01, 0x01, 0x01, 0x01, 0x01, 0x01, 0x01}) {
		t.Error("all-ones weak key not detected")
	}
	if IsWeak(Key{0x13, 0x34, 0x57, 0x79, 0x9b, 0xbc, 0xdf, 0xf1}) {
		t.Error("strong key flagged weak")
	}
}

func TestFixWeakProducesStrongParityKey(t *testing.T) {
	for _, w := range weakKeys {
		k := fixWeak(Key(w))
		if IsWeak(k) {
			t.Errorf("fixWeak(%x) still weak", w)
		}
		if !HasOddParity(k) {
			t.Errorf("fixWeak(%x) lost parity", w)
		}
	}
}

func TestNewRandomKey(t *testing.T) {
	seen := map[Key]bool{}
	for i := 0; i < 64; i++ {
		k, err := NewRandomKey()
		if err != nil {
			t.Fatal(err)
		}
		if !HasOddParity(k) {
			t.Fatalf("random key %x lacks parity", k)
		}
		if IsWeak(k) {
			t.Fatalf("random key %x is weak", k)
		}
		if seen[k] {
			t.Fatalf("random key %x repeated", k)
		}
		seen[k] = true
	}
}

// reverse7Reference reverses the low 7 bits of b one bit at a time: the
// oracle for reverse7.
func reverse7Reference(b byte) byte {
	var out byte
	for i := 0; i < 7; i++ {
		out = out<<1 | (b>>uint(i))&1
	}
	return out
}

func TestReverse7(t *testing.T) {
	for v := 0; v < 256; v++ {
		if got, want := reverse7(byte(v)), reverse7Reference(byte(v)); got != want {
			t.Errorf("reverse7(%#02x) = %#02x, want %#02x", v, got, want)
		}
	}
}

func TestStringToKey(t *testing.T) {
	k1 := StringToKey("zanzibar", "ATHENA.MIT.EDU")
	k2 := StringToKey("zanzibar", "ATHENA.MIT.EDU")
	if k1 != k2 {
		t.Error("StringToKey not deterministic")
	}
	if !HasOddParity(k1) || IsWeak(k1) {
		t.Errorf("StringToKey produced bad key %x", k1)
	}
	if k1 == StringToKey("zanzibar", "LCS.MIT.EDU") {
		t.Error("salt does not affect key")
	}
	if k1 == StringToKey("zanzibaR", "ATHENA.MIT.EDU") {
		t.Error("password case does not affect key")
	}
	// Degenerate inputs must still give valid keys.
	for _, pw := range []string{"", "x", "a very long passphrase that spans several DES blocks easily"} {
		k := StringToKey(pw, "R")
		if !HasOddParity(k) || IsWeak(k) {
			t.Errorf("StringToKey(%q) produced bad key %x", pw, k)
		}
	}
}

// TestStringToKeyDistribution makes sure many related passwords map to
// distinct keys (the fan-fold must not collapse trivially).
func TestStringToKeyDistribution(t *testing.T) {
	seen := map[Key]string{}
	for _, pw := range []string{
		"a", "b", "ab", "ba", "aa", "bb",
		"password", "passwore", "Password", "password ",
		"12345678", "123456789", "87654321",
	} {
		k := StringToKey(pw, "REALM")
		if prev, dup := seen[k]; dup {
			t.Errorf("passwords %q and %q collide on key %x", prev, pw, k)
		}
		seen[k] = pw
	}
}

func TestCBCChecksum(t *testing.T) {
	key := StringToKey("master", "X")
	a := CBCChecksum(key, []byte("hello world"))
	if a != CBCChecksum(key, []byte("hello world")) {
		t.Error("checksum not deterministic")
	}
	if a == CBCChecksum(key, []byte("hello worle")) {
		t.Error("checksum ignores data")
	}
	other := StringToKey("other", "X")
	if a == CBCChecksum(other, []byte("hello world")) {
		t.Error("checksum ignores key")
	}
}

func BenchmarkStringToKey(b *testing.B) {
	for i := 0; i < b.N; i++ {
		StringToKey("zanzibar", "ATHENA.MIT.EDU")
	}
}
