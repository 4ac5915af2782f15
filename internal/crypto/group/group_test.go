package group

import (
	"bytes"
	"math/rand"
	"testing"
)

// onCurve runs fn as the subtest named after the curve's hash-to-group
// suite, which keeps the test IDs stable for test history.
func onCurve(t *testing.T, fn func(t *testing.T)) { t.Run("ristretto255", fn) }

// detRng is a deterministic io.Reader for seeded-scalar tests.
type detRng struct{ r *rand.Rand }

func (d detRng) Read(p []byte) (int, error) { return d.r.Read(p) }

func randomElement(r *rand.Rand) Element {
	var seed [16]byte
	r.Read(seed[:])
	return HashToElement(seed[:])
}

func TestGroupLaws(t *testing.T) {
	onCurve(t, func(t *testing.T) {
		r := rand.New(rand.NewSource(40))
		rng := detRng{rand.New(rand.NewSource(41))}
		for i := 0; i < 10; i++ {
			p := randomElement(r)
			q := randomElement(r)

			// commutativity and identity
			if !Equal(Add(p, q), Add(q, p)) {
				t.Fatal("add not commutative")
			}
			if !Equal(Add(p, Identity()), p) {
				t.Fatal("identity not neutral")
			}
			if !IsIdentity(Add(p, Neg(p))) {
				t.Fatal("p + (-p) != identity")
			}
			if !Equal(Sub(p, q), Add(p, Neg(q))) {
				t.Fatal("sub != add neg")
			}

			// scalar laws
			a, err := RandomScalar(rng)
			if err != nil {
				t.Fatal(err)
			}
			b, err := RandomScalar(rng)
			if err != nil {
				t.Fatal(err)
			}
			// (a*P) + (b*P) == (a+b mod n)*P
			sum := ScalarToBig(a)
			sum.Add(sum, ScalarToBig(b))
			sum.Mod(sum, Order())
			lhs := Add(Mul(p, a), Mul(p, b))
			rhs := Mul(p, ScalarFromBig(sum))
			if !Equal(lhs, rhs) {
				t.Fatal("scalar distributivity failed")
			}
			// a*(b*P) == (a*b mod n)*P
			prod := ScalarToBig(a)
			prod.Mul(prod, ScalarToBig(b))
			prod.Mod(prod, Order())
			if !Equal(Mul(Mul(p, b), a), Mul(p, ScalarFromBig(prod))) {
				t.Fatal("scalar associativity failed")
			}
			// BaseMul vs Mul(Generator)
			if !Equal(BaseMul(a), Mul(Generator(), a)) {
				t.Fatal("BaseMul != Mul(G)")
			}
		}
	})
}

func TestGroupEncodeDecode(t *testing.T) {
	onCurve(t, func(t *testing.T) {
		r := rand.New(rand.NewSource(42))
		for i := 0; i < 10; i++ {
			p := randomElement(r)

			wire := Encode(p)
			if len(wire) != WireSize {
				t.Fatalf("wire size %d", len(wire))
			}
			back, err := Decode(wire)
			if err != nil {
				t.Fatal(err)
			}
			if !Equal(back, p) {
				t.Fatal("wire round trip mismatch")
			}

			comp := Compress(p)
			back2, err := Decode(comp)
			if err != nil {
				t.Fatal(err)
			}
			if !Equal(back2, p) {
				t.Fatal("compressed round trip mismatch")
			}

			// compression must be canonical: same element from two
			// different projective representatives
			doubleViaAdd := Add(p, p)
			viaMul := Mul(p, Scalar{2})
			if !bytes.Equal(Compress(doubleViaAdd), Compress(viaMul)) {
				t.Fatal("compression not canonical across representatives")
			}

		}

		// identity encodings
		id := Identity()
		if !bytes.Equal(Encode(id), []byte{0}) || !bytes.Equal(Compress(id), []byte{0}) {
			t.Fatal("identity must use the 1-byte sentinel")
		}
		back, err := Decode([]byte{0})
		if err != nil || !IsIdentity(back) {
			t.Fatal("identity decode failed")
		}

		// junk must be rejected
		for _, junk := range [][]byte{nil, {1}, {0, 0}, make([]byte, WireSize), make([]byte, 64)} {
			if _, err := Decode(junk); err == nil {
				t.Fatalf("junk %v decoded", junk)
			}
		}
		// corrupted wire point (off curve)
		p := randomElement(rand.New(rand.NewSource(7)))
		wire := Encode(p)
		wire[20] ^= 0x40
		if _, err := Decode(wire); err == nil {
			t.Fatal("off-curve wire point decoded")
		}
	})
}

func TestGroupMulBatchEquivalence(t *testing.T) {
	onCurve(t, func(t *testing.T) {
		r := rand.New(rand.NewSource(43))
		rng := detRng{rand.New(rand.NewSource(44))}
		k, err := RandomScalar(rng)
		if err != nil {
			t.Fatal(err)
		}
		ps := make([]Element, 9)
		want := make([]Element, len(ps))
		for i := range ps {
			if i == 3 {
				ps[i] = Identity()
			} else {
				ps[i] = randomElement(r)
			}
			want[i] = Mul(ps[i], k)
		}
		dst := make([]Element, len(ps))
		MulBatch(dst, ps, k)
		for i := range dst {
			if !Equal(dst[i], want[i]) {
				t.Fatalf("MulBatch entry %d != Mul", i)
			}
		}
		// normalized results must encode identically to solo results
		Normalize(dst)
		for i := range dst {
			if !bytes.Equal(Encode(dst[i]), Encode(want[i])) {
				t.Fatalf("entry %d encoding mismatch after Normalize", i)
			}
		}
	})
}

func TestGroupPrecomputeEquivalence(t *testing.T) {
	onCurve(t, func(t *testing.T) {
		r := rand.New(rand.NewSource(45))
		rng := detRng{rand.New(rand.NewSource(46))}
		p := randomElement(r)
		table := Precompute(p)
		for i := 0; i < 6; i++ {
			k, err := RandomScalar(rng)
			if err != nil {
				t.Fatal(err)
			}
			if !Equal(table.Mul(k), Mul(p, k)) {
				t.Fatal("Precompute table disagrees with Mul")
			}
		}
	})
}

func TestGroupDH(t *testing.T) {
	onCurve(t, func(t *testing.T) {
		rng := detRng{rand.New(rand.NewSource(47))}
		// standard ECDH consistency: both sides derive the same bytes
		aPriv, _ := RandomScalar(rng)
		bPriv, _ := RandomScalar(rng)
		aPub := BaseMul(aPriv)
		bPub := BaseMul(bPriv)
		// receivers decode the wire form, as the daemons do
		aPubD, err := Decode(Encode(aPub))
		if err != nil {
			t.Fatal(err)
		}
		bPubD, err := Decode(Encode(bPub))
		if err != nil {
			t.Fatal(err)
		}
		s1 := SharedBytes(MulDH(bPubD, PrepareDH(aPriv)))
		s2 := SharedBytes(MulDH(aPubD, PrepareDH(bPriv)))
		if len(s1) != 32 || !bytes.Equal(s1, s2) {
			t.Fatal("DH shared secrets disagree")
		}
		// and they agree with the plain scalar product
		prod := ScalarToBig(aPriv)
		prod.Mul(prod, ScalarToBig(bPriv))
		prod.Mod(prod, Order())
		s3 := SharedBytes(BaseMul(ScalarFromBig(prod)))
		if !bytes.Equal(s1, s3) {
			t.Fatal("DH disagrees with direct scalar product")
		}
	})
}

func TestGroupHashToElement(t *testing.T) {
	onCurve(t, func(t *testing.T) {
		seen := map[string]bool{}
		for i := 0; i < 20; i++ {
			data := []byte{byte(i), 0x5a}
			p := HashToElement(data)
			q := HashToElement(data)
			if !Equal(p, q) {
				t.Fatal("hash not deterministic")
			}
			if IsIdentity(p) {
				t.Fatal("hash produced identity")
			}
			key := string(Compress(p))
			if seen[key] {
				t.Fatal("hash collision across distinct inputs")
			}
			seen[key] = true
		}
	})
}

func TestGroupRandomScalarRange(t *testing.T) {
	onCurve(t, func(t *testing.T) {
		rng := detRng{rand.New(rand.NewSource(48))}
		for i := 0; i < 50; i++ {
			k, err := RandomScalar(rng)
			if err != nil {
				t.Fatal(err)
			}
			if len(k) != ScalarSize {
				t.Fatalf("scalar size %d", len(k))
			}
			v := ScalarToBig(k)
			if v.Sign() == 0 || v.Cmp(Order()) >= 0 {
				t.Fatalf("scalar out of range: %v", v)
			}
		}
		// determinism: same seed, same scalars
		r1 := detRng{rand.New(rand.NewSource(99))}
		r2 := detRng{rand.New(rand.NewSource(99))}
		for i := 0; i < 10; i++ {
			k1, _ := RandomScalar(r1)
			k2, _ := RandomScalar(r2)
			if !bytes.Equal(k1, k2) {
				t.Fatal("seeded scalars diverged")
			}
		}
	})
}
