package group

import (
	"math/big"
	"math/rand"
	"testing"
)

func BenchmarkFe25519Mul(b *testing.B) {
	var x, y fe25519
	x.fromBig(new(big.Int).Rsh(p25519, 1))
	y.One()
	y.Add(&y, &x)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x.Mul(&x, &y)
	}
}

func BenchmarkFe25519Square(b *testing.B) {
	var x fe25519
	x.fromBig(new(big.Int).Rsh(p25519, 1))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		x.Square(&x)
	}
}

func BenchmarkEdCombMul(b *testing.B) {
	r := rand.New(rand.NewSource(27))
	var seed [32]byte
	r.Read(seed[:])
	p := edHashToPoint(seed[:])
	normalizeEd([]*edPoint{p})
	table := buildEdComb(p, 6)
	k := make([]byte, 32)
	r.Read(k)
	k[0] &= 0x0f
	b.ReportAllocs()
	b.ResetTimer()
	var out edPoint
	for i := 0; i < b.N; i++ {
		table.mulComb(&out, k)
	}
}

func BenchmarkEdWNAFMul(b *testing.B) {
	r := rand.New(rand.NewSource(28))
	var seed [32]byte
	r.Read(seed[:])
	p := edHashToPoint(seed[:])
	k := make([]byte, 32)
	r.Read(k)
	k[0] &= 0x0f
	var digits [258]int8
	n := wnafDigits(k, &digits)
	b.ReportAllocs()
	b.ResetTimer()
	var out edPoint
	for i := 0; i < b.N; i++ {
		edScalarMulWNAF(&out, digits[:n], p)
	}
}
