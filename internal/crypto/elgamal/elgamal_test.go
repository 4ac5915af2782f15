package elgamal

import (
	"bytes"
	"crypto/rand"
	"io"
	"math/big"
	mrand "math/rand/v2"
	"testing"

	"prochlo/internal/crypto/group"
)

// curveName names the subtests and sub-benchmarks after the curve's
// hash-to-group suite, which keeps test IDs and benchmark rows stable.
const curveName = "ristretto255"

// onCurve runs fn as the curve's subtest.
func onCurve(t *testing.T, fn func(t *testing.T)) { t.Run(curveName, fn) }

func TestHashToPointValid(t *testing.T) {
	onCurve(t, func(t *testing.T) {
		for _, s := range []string{"", "a", "crowd-42", "the quick brown fox"} {
			p := HashToPoint([]byte(s))
			if p.IsInfinity() {
				t.Errorf("HashToPoint(%q) is infinity", s)
			}
			// the encoding must decode, which validates the curve equation
			q, err := ParsePoint(p.Bytes())
			if err != nil || !q.Equal(p) {
				t.Errorf("HashToPoint(%q) round trip: %v", s, err)
			}
		}
	})
}

func TestHashToPointDeterministicAndDistinct(t *testing.T) {
	a := HashToPoint([]byte("crowd-a"))
	a2 := HashToPoint([]byte("crowd-a"))
	b := HashToPoint([]byte("crowd-b"))
	if !a.Equal(a2) {
		t.Error("HashToPoint not deterministic")
	}
	if a.Equal(b) {
		t.Error("distinct inputs mapped to the same point")
	}
}

func TestEncryptDecryptRoundTrip(t *testing.T) {
	onCurve(t, func(t *testing.T) {
		kp, err := GenerateKeyPair(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		m := HashToPoint([]byte("message"))
		ct, err := Encrypt(rand.Reader, kp.H, m)
		if err != nil {
			t.Fatal(err)
		}
		if got := kp.Decrypt(ct); !got.Equal(m) {
			t.Fatal("decrypt did not recover message point")
		}
	})
}

// TestNewKeyPairRoundTrip: a key pair rebuilt from its persisted scalar
// must decrypt ciphertexts encrypted to the original public key.
func TestNewKeyPairRoundTrip(t *testing.T) {
	onCurve(t, func(t *testing.T) {
		kp, err := GenerateKeyPair(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		reloaded, err := NewKeyPair(kp.X)
		if err != nil {
			t.Fatal(err)
		}
		if !reloaded.H.Equal(kp.H) {
			t.Fatal("rebuilt public point differs")
		}
		m := HashToPoint([]byte("persisted"))
		ct, err := Encrypt(rand.Reader, kp.H, m)
		if err != nil {
			t.Fatal(err)
		}
		if got := reloaded.Decrypt(ct); !got.Equal(m) {
			t.Fatal("rebuilt key pair did not decrypt")
		}
		if _, err := NewKeyPair(nil); err == nil {
			t.Fatal("nil scalar accepted")
		}
		if _, err := NewKeyPair(group.Order()); err == nil {
			t.Fatal("scalar == order accepted")
		}
	})
}

func TestRandomizedCiphertexts(t *testing.T) {
	kp, _ := GenerateKeyPair(rand.Reader)
	m := HashToPoint([]byte("m"))
	a, _ := Encrypt(rand.Reader, kp.H, m)
	b, _ := Encrypt(rand.Reader, kp.H, m)
	if a.C1.Equal(b.C1) {
		t.Error("two encryptions shared randomness")
	}
}

// TestBlindingPreservesEquality is the core §4.3 property: after blinding
// with α and decrypting, equal crowd IDs yield equal pseudonyms and distinct
// crowd IDs yield distinct pseudonyms.
func TestBlindingPreservesEquality(t *testing.T) {
	onCurve(t, func(t *testing.T) {
		kp, _ := GenerateKeyPair(rand.Reader)
		alpha, _ := RandomScalar(rand.Reader)

		ct1, _ := EncryptCrowdID(rand.Reader, kp.H, []byte("zip-94043"))
		ct2, _ := EncryptCrowdID(rand.Reader, kp.H, []byte("zip-94043"))
		ct3, _ := EncryptCrowdID(rand.Reader, kp.H, []byte("zip-10001"))

		p1 := kp.BlindedPseudonym(Blind(ct1, alpha))
		p2 := kp.BlindedPseudonym(Blind(ct2, alpha))
		p3 := kp.BlindedPseudonym(Blind(ct3, alpha))

		if p1 != p2 {
			t.Error("same crowd ID produced different pseudonyms")
		}
		if p1 == p3 {
			t.Error("different crowd IDs collided")
		}
	})
}

// TestBlindingHidesCrowdID checks that the pseudonym is not the bare hash
// point (which would be dictionary-attackable by Shuffler 2).
func TestBlindingHidesCrowdID(t *testing.T) {
	kp, _ := GenerateKeyPair(rand.Reader)
	alpha, _ := RandomScalar(rand.Reader)
	ct, _ := EncryptCrowdID(rand.Reader, kp.H, []byte("secret-crowd"))
	pseudo := kp.BlindedPseudonym(Blind(ct, alpha))
	if pseudo == string(HashToPoint([]byte("secret-crowd")).Compressed()) {
		t.Error("blinded pseudonym equals unblinded hash point")
	}
}

// TestUnblindedDecryptRecoversHash: without blinding, Shuffler 2 sees the
// bare hash point (the dictionary-attack risk that motivates blinding).
func TestUnblindedDecryptRecoversHash(t *testing.T) {
	kp, _ := GenerateKeyPair(rand.Reader)
	ct, _ := EncryptCrowdID(rand.Reader, kp.H, []byte("crowd"))
	if got := kp.Decrypt(ct); !got.Equal(HashToPoint([]byte("crowd"))) {
		t.Error("unblinded decryption should recover the hash point")
	}
}

func TestDifferentAlphaDifferentPseudonym(t *testing.T) {
	kp, _ := GenerateKeyPair(rand.Reader)
	a1, _ := RandomScalar(rand.Reader)
	a2, _ := RandomScalar(rand.Reader)
	ct, _ := EncryptCrowdID(rand.Reader, kp.H, []byte("crowd"))
	if kp.BlindedPseudonym(Blind(ct, a1)) == kp.BlindedPseudonym(Blind(ct, a2)) {
		t.Error("different blinding factors produced the same pseudonym")
	}
}

func TestPointBytesRoundTrip(t *testing.T) {
	onCurve(t, func(t *testing.T) {
		p := HashToPoint([]byte("round trip"))
		q, err := ParsePoint(p.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if !p.Equal(q) {
			t.Error("wire round trip failed")
		}
		q, err = ParsePoint(p.Compressed())
		if err != nil {
			t.Fatal(err)
		}
		if !p.Equal(q) {
			t.Error("compressed round trip failed")
		}
		inf := Point{}
		q, err = ParsePoint(inf.Bytes())
		if err != nil || !q.IsInfinity() {
			t.Error("infinity round trip failed")
		}
	})
}

func TestParsePointRejectsGarbage(t *testing.T) {
	for _, junk := range [][]byte{
		bytes.Repeat([]byte{0xff}, 33),
		bytes.Repeat([]byte{0xff}, 65),
		bytes.Repeat([]byte{0xff}, 17),
		{},
	} {
		if _, err := ParsePoint(junk); err == nil {
			t.Errorf("garbage point of length %d accepted", len(junk))
		}
	}
}

// TestRandomScalarRejectionSampling checks that RandomScalar consumes a
// fixed 64 bytes per attempt, stays in [1, l-1], and surfaces an exhausted
// rng as an error instead of spinning or returning junk.
func TestRandomScalarRejectionSampling(t *testing.T) {
	want := big.NewInt(0x1234)
	var wide [64]byte
	want.FillBytes(wide[:])
	k, err := RandomScalar(bytes.NewReader(wide[:]))
	if err != nil {
		t.Fatal(err)
	}
	if k.Cmp(want) != 0 {
		t.Fatalf("wide reduction: got %v want %v", k, want)
	}

	// a zero candidate must be rejected and the next 64 bytes used
	stream := append(make([]byte, 64), wide[:]...)
	k, err = RandomScalar(bytes.NewReader(stream))
	if err != nil {
		t.Fatal(err)
	}
	if k.Cmp(want) != 0 {
		t.Fatalf("zero candidate not rejected: got %v", k)
	}

	if _, err := RandomScalar(bytes.NewReader(bytes.Repeat([]byte{0xff}, 40))); err == nil {
		t.Fatal("truncated rng accepted")
	}

	// range check
	onCurve(t, func(t *testing.T) {
		for i := 0; i < 30; i++ {
			k, err := RandomScalar(rand.Reader)
			if err != nil {
				t.Fatal(err)
			}
			if k.Sign() <= 0 || k.Cmp(group.Order()) >= 0 {
				t.Fatalf("scalar %v out of range", k)
			}
		}
	})
}

func TestBlinderMatchesBlind(t *testing.T) {
	onCurve(t, func(t *testing.T) {
		kp, err := GenerateKeyPair(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		alpha, err := RandomScalar(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		b := NewBlinder(alpha)
		for i := 0; i < 8; i++ {
			ct, err := EncryptCrowdID(rand.Reader, kp.H, []byte{byte(i)})
			if err != nil {
				t.Fatal(err)
			}
			want := Blind(ct, alpha)
			got := b.Blind(ct)
			if !got.C1.Equal(want.C1) || !got.C2.Equal(want.C2) {
				t.Fatalf("Blinder.Blind diverges from Blind at input %d", i)
			}
		}
	})
}

func TestDecrypterMatchesKeyPair(t *testing.T) {
	onCurve(t, func(t *testing.T) {
		kp, err := GenerateKeyPair(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		d := kp.Decrypter()
		alpha, err := RandomScalar(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 8; i++ {
			ct, err := EncryptCrowdID(rand.Reader, kp.H, []byte{byte(i)})
			if err != nil {
				t.Fatal(err)
			}
			blinded := Blind(ct, alpha)
			if got, want := d.BlindedPseudonym(blinded), kp.BlindedPseudonym(blinded); got != want {
				t.Fatalf("Decrypter pseudonym diverges from KeyPair at input %d", i)
			}
			if !d.Decrypt(ct).Equal(kp.Decrypt(ct)) {
				t.Fatalf("Decrypter.Decrypt diverges from KeyPair.Decrypt at input %d", i)
			}
		}
	})
}

// TestEncrypterMatchesEncryptCrowdID pins the cached encoder fast path to
// the reference EncryptCrowdID: same rng stream, same ciphertext — on both
// a cold and a warm hash-point cache.
func TestEncrypterMatchesEncryptCrowdID(t *testing.T) {
	onCurve(t, func(t *testing.T) {
		kp, err := GenerateKeyPair(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		e := NewEncrypter(kp.H)
		for round := 0; round < 2; round++ { // round 1 hits the cache
			for i := 0; i < 4; i++ {
				var seed [32]byte
				seed[0], seed[1] = byte(round), byte(i)
				id := []byte{0xc0, byte(i)}
				want, err := EncryptCrowdID(mrand.NewChaCha8(seed), kp.H, id)
				if err != nil {
					t.Fatal(err)
				}
				got, err := e.EncryptCrowdID(mrand.NewChaCha8(seed), id)
				if err != nil {
					t.Fatal(err)
				}
				if !got.C1.Equal(want.C1) || !got.C2.Equal(want.C2) {
					t.Fatalf("round %d input %d: Encrypter diverges from EncryptCrowdID", round, i)
				}
			}
		}
	})
}

// TestEncryptCrowdIDBatchMatchesSolo: the batch kernel path must be
// byte-identical to per-report EncryptCrowdID calls on the same per-report
// rng streams.
func TestEncryptCrowdIDBatchMatchesSolo(t *testing.T) {
	onCurve(t, func(t *testing.T) {
		kp, err := GenerateKeyPair(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		e := NewEncrypter(kp.H)
		n := 17
		rngs := make([]io.Reader, n)
		ids := make([][]byte, n)
		for i := range rngs {
			var seed [32]byte
			seed[0] = byte(i)
			rngs[i] = mrand.NewChaCha8(seed)
			ids[i] = []byte{byte(i % 5)} // repeated labels exercise the cache
		}
		got, err := e.EncryptCrowdIDBatch(rngs, ids, 4)
		if err != nil {
			t.Fatal(err)
		}
		soloEnc := NewEncrypter(kp.H)
		for i := 0; i < n; i++ {
			var seed [32]byte
			seed[0] = byte(i)
			want, err := soloEnc.EncryptCrowdID(mrand.NewChaCha8(seed), ids[i])
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got[i].C1.Bytes(), want.C1.Bytes()) ||
				!bytes.Equal(got[i].C2.Bytes(), want.C2.Bytes()) {
				t.Fatalf("batch entry %d diverges from solo encrypt", i)
			}
		}
		if _, err := e.EncryptCrowdIDBatch(rngs[:2], ids[:3], 1); err == nil {
			t.Fatal("length mismatch accepted")
		}
	})
}

// fuzzCiphertexts derives n deterministic ciphertexts from a fuzz seed.
func fuzzCiphertexts(kp *KeyPair, seed [32]byte, n int) ([]Ciphertext, error) {
	e := NewEncrypter(kp.H)
	rng := mrand.NewChaCha8(seed)
	cts := make([]Ciphertext, n)
	for i := range cts {
		ct, err := e.EncryptCrowdID(rng, []byte{byte(i % 3), seed[0]})
		if err != nil {
			return nil, err
		}
		cts[i] = ct
	}
	return cts, nil
}

// fuzzKey is generated once; fuzzing exercises seed and batch-size space,
// not key space.
var fuzzKey = func() *KeyPair {
	kp, err := GenerateKeyPair(rand.Reader)
	if err != nil {
		panic(err)
	}
	return kp
}()

// FuzzBlindBatchEquivalence checks BlindBatch against the solo Blind path
// on arbitrary seeds and sizes.
func FuzzBlindBatchEquivalence(f *testing.F) {
	f.Add([]byte("seed"), uint8(3))
	f.Add([]byte{}, uint8(1))
	f.Add([]byte{0xff, 0x01}, uint8(9))
	f.Fuzz(func(t *testing.T, seedData []byte, n uint8) {
		kp := fuzzKey
		var seed [32]byte
		copy(seed[:], seedData)
		cts, err := fuzzCiphertexts(kp, seed, int(n%16))
		if err != nil {
			t.Fatal(err)
		}
		alpha, err := RandomScalar(mrand.NewChaCha8(seed))
		if err != nil {
			t.Fatal(err)
		}
		b := NewBlinder(alpha)
		batch := append([]Ciphertext(nil), cts...)
		b.BlindBatch(batch)
		for i, ct := range cts {
			want := b.Blind(ct)
			if !batch[i].C1.Equal(want.C1) || !batch[i].C2.Equal(want.C2) {
				t.Fatalf("BlindBatch entry %d diverges from Blind", i)
			}
			if !bytes.Equal(batch[i].C1.Bytes(), want.C1.Bytes()) {
				t.Fatalf("BlindBatch entry %d encoding diverges", i)
			}
		}
	})
}

// FuzzDecryptBatchEquivalence checks DecryptBatch/PseudonymBatch against
// the solo Decrypt path on arbitrary seeds and sizes.
func FuzzDecryptBatchEquivalence(f *testing.F) {
	f.Add([]byte("seed"), uint8(4))
	f.Add([]byte{0x7}, uint8(1))
	f.Add([]byte{0xaa, 0xbb, 0xcc}, uint8(12))
	f.Fuzz(func(t *testing.T, seedData []byte, n uint8) {
		kp := fuzzKey
		var seed [32]byte
		copy(seed[:], seedData)
		cts, err := fuzzCiphertexts(kp, seed, int(n%16))
		if err != nil {
			t.Fatal(err)
		}
		alpha, err := RandomScalar(mrand.NewChaCha8(seed))
		if err != nil {
			t.Fatal(err)
		}
		NewBlinder(alpha).BlindBatch(cts)
		d := kp.Decrypter()
		pts := d.DecryptBatch(cts)
		pseudos := d.PseudonymBatch(cts)
		for i, ct := range cts {
			want := d.Decrypt(ct)
			if !pts[i].Equal(want) {
				t.Fatalf("DecryptBatch entry %d diverges from Decrypt", i)
			}
			if pseudos[i] != d.BlindedPseudonym(ct) {
				t.Fatalf("PseudonymBatch entry %d diverges from BlindedPseudonym", i)
			}
		}
	})
}

func BenchmarkEncryptCrowdID(b *testing.B) {
	kp, _ := GenerateKeyPair(rand.Reader)
	e := NewEncrypter(kp.H)
	e.keyTable() // build outside the timer
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.EncryptCrowdID(rand.Reader, []byte("crowd")); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBlind(b *testing.B) {
	kp, _ := GenerateKeyPair(rand.Reader)
	alpha, _ := RandomScalar(rand.Reader)
	ct, _ := EncryptCrowdID(rand.Reader, kp.H, []byte("crowd"))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Blind(ct, alpha)
	}
}

func BenchmarkDecrypt(b *testing.B) {
	kp, _ := GenerateKeyPair(rand.Reader)
	ct, _ := EncryptCrowdID(rand.Reader, kp.H, []byte("crowd"))
	d := kp.Decrypter()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Decrypt(ct)
	}
}

// BenchmarkHashToPointCacheMiss measures the uncached hash-to-group path
// (every iteration hashes a fresh label), the cost the Encrypter's cache
// saves per repeated crowd ID.
func BenchmarkHashToPointCacheMiss(b *testing.B) {
	b.Run(curveName, func(b *testing.B) {
		var label [8]byte
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			label[0], label[1], label[2], label[3] = byte(i), byte(i>>8), byte(i>>16), byte(i>>24)
			HashToPoint(label[:])
		}
	})
}

// BenchmarkElGamalBackends tracks the crowd-ID blinding hot path:
// encrypt/blind/decrypt one ciphertext per op serially, and
// the batch kernels amortized over 256 ciphertexts on one worker (one
// scalar recoding and one shared inversion per batch). ns/ct is the
// comparable unit across serial and batch rows.
func BenchmarkElGamalBackends(b *testing.B) {
	const batch = 256
	kp, err := GenerateKeyPair(rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	e := NewEncrypter(kp.H)
	e.keyTable() // build outside the timer
	alpha, err := RandomScalar(rand.Reader)
	if err != nil {
		b.Fatal(err)
	}
	makeCts := func(n int) []Ciphertext {
		cts := make([]Ciphertext, n)
		for i := range cts {
			ct, err := e.EncryptCrowdID(rand.Reader, []byte("crowd"))
			if err != nil {
				b.Fatal(err)
			}
			cts[i] = ct
		}
		return cts
	}
	b.Run(curveName+"/encrypt", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := e.EncryptCrowdID(rand.Reader, []byte("crowd")); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/ct")
	})
	b.Run(curveName+"/encrypt-batch", func(b *testing.B) {
		ids := make([][]byte, batch)
		rngs := make([]io.Reader, batch)
		for i := range ids {
			ids[i] = []byte("crowd")
			rngs[i] = rand.Reader
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := e.EncryptCrowdIDBatch(rngs, ids, 1); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/ct")
	})
	b.Run(curveName+"/blind", func(b *testing.B) {
		ct := makeCts(1)[0]
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			Blind(ct, alpha)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/ct")
	})
	b.Run(curveName+"/blind-batch", func(b *testing.B) {
		blinder := NewBlinder(alpha)
		cts := makeCts(batch)
		scratch := make([]Ciphertext, batch)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			copy(scratch, cts)
			blinder.BlindBatch(scratch)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/ct")
	})
	b.Run(curveName+"/decrypt", func(b *testing.B) {
		ct := makeCts(1)[0]
		d := kp.Decrypter()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.Decrypt(ct)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/ct")
	})
	b.Run(curveName+"/decrypt-batch", func(b *testing.B) {
		cts := makeCts(batch)
		d := kp.Decrypter()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			d.DecryptBatch(cts)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*batch), "ns/ct")
	})
}
