package group

import (
	"bytes"
	"testing"
)

// FuzzDecode checks the decode boundary every hostile client reaches:
// Decode never panics, and every input it accepts re-encodes in its own
// form (the 1-byte identity, the 65-byte wire form, or the 32-byte
// compressed form) to exactly the input bytes, so no element has two
// accepted encodings of the same form.
func FuzzDecode(f *testing.F) {
	f.Add([]byte{0})
	identity32 := make([]byte, 32)
	identity32[0] = 1 // y = 1, x = 0: the identity in compressed form
	f.Add(identity32)
	p := HashToElement([]byte("crowd-42"))
	f.Add(Encode(p))
	f.Add(Compress(p))
	f.Add(Compress(Neg(p)))
	f.Add(make([]byte, WireSize))
	f.Fuzz(func(t *testing.T, b []byte) {
		e, err := Decode(b)
		if err != nil {
			return
		}
		var again []byte
		switch len(b) {
		case 1, WireSize:
			again = Encode(e)
		case 32:
			again = Compress(e)
		default:
			t.Fatalf("Decode accepted a %d-byte input", len(b))
		}
		if !bytes.Equal(again, b) {
			t.Fatalf("Decode(%x) re-encodes to %x", b, again)
		}
		// the encodings of an accepted element round-trip too
		for _, enc := range [][]byte{Encode(e), Compress(e)} {
			back, err := Decode(enc)
			if err != nil || !Equal(back, e) {
				t.Fatalf("Decode(%x) = %v, %v", enc, back, err)
			}
		}
	})
}
