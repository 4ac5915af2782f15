// Package group is the one elliptic-curve group every Prochlo party agrees
// on: edwards25519, used by the crowd-ID El Gamal layer and the hybrid
// envelope layer. Its operations are package-level functions over an opaque
// Element and a big-endian Scalar.
//
// edwards25519 has cofactor 8: the curve group is the prime-order subgroup
// (order l) times a small torsion subgroup of order 8. Honest elements live
// in the prime-order subgroup: HashToElement clears the cofactor, and keys
// and ciphertexts are multiples of subgroup points. Decode checks only that
// a point is canonical and on the curve, so a hostile encoder can add a
// torsion component. The Diffie-Hellman path (PrepareDH/MulDH) clears it,
// so it can never probe a private key. The El Gamal paths (blinding and
// decryption) use plain Mul and do not: a torsion shift changes only the
// submitting client's own pseudonym until Decode and Equal follow the
// ristretto255 quotient (RFC 9496).
//
// The API is batch-oriented: the extended-coordinate kernels never invert
// per operation, Normalize converts an epoch-sized slice to affine with one
// shared field inversion (Montgomery trick), and Precompute builds signed-
// digit comb tables for points that are fixed across a batch (the
// recipient key in the encoder, the analyzer key), turning each fixed-point
// multiplication into ~43 table additions with no doublings.
//
// Encodings: Encode emits a 1-byte identity sentinel {0} or the 65-byte
// wire form 0x05 || x || y (little-endian canonical field elements), so
// parsing costs a curve-equation check and no square root on the hot path.
// Compress emits the 32-byte form that packs y with the sign of x in the
// top bit (RFC 8032 layout), used for pseudonym map keys and persisted
// public keys. Within the prime-order subgroup the affine pair is unique
// per element, so two equal honest elements always compress identically.
// Decode accepts exactly the encodings Encode and Compress produce.
//
// All kernels are variable-time. This repository reproduces a research
// system; the scalars being multiplied (blinding exponents, ephemeral
// secrets) are per-epoch or per-report values processed in bulk on trusted
// infrastructure.
package group

import (
	"errors"
	"io"
	"math/big"
	"sync"
)

// Scalar is an opaque scalar: 32 bytes, big-endian, reduced mod the group
// order.
type Scalar []byte

// ScalarSize is the byte length of scalars.
const ScalarSize = 32

// WireSize is the byte length of a non-identity wire (uncompressed) point
// encoding, including the 1-byte tag.
const WireSize = 65

// wireTag is the first byte of the 65-byte wire form.
const wireTag = 0x05

// Element is a group element. The zero value is the identity.
type Element struct {
	ed *edPoint
}

// point returns the extended-coordinate point, treating the zero Element
// as the identity.
func (e Element) point() *edPoint {
	if e.ed == nil {
		var p edPoint
		p.identity()
		return &p
	}
	return e.ed
}

// Order returns the group order l. Callers must not mutate it.
func Order() *big.Int { return edOrder }

// fillScalar validates and fixes the width of a scalar.
func fillScalar(k Scalar) (*[32]byte, error) {
	var out [32]byte
	if len(k) > 32 {
		return nil, errors.New("group: scalar too long")
	}
	copy(out[32-len(k):], k)
	return &out, nil
}

// mustScalar panics on malformed scalars; used on paths where the scalar
// came from this package (RandomScalar, PrepareDH) or a validated key.
func mustScalar(k Scalar) *[32]byte {
	s, err := fillScalar(k)
	if err != nil {
		panic(err)
	}
	return s
}

// ScalarFromBig converts a big.Int (already reduced mod the group order)
// to a Scalar.
func ScalarFromBig(v *big.Int) Scalar {
	out := make(Scalar, 32)
	v.FillBytes(out)
	return out
}

// ScalarToBig converts a Scalar to a big.Int.
func ScalarToBig(k Scalar) *big.Int { return new(big.Int).SetBytes(k) }

// RandomScalar samples a uniform non-zero scalar by wide reduction: 64
// uniform bytes mod the ~252-bit order leave negligible bias, and every
// attempt consumes exactly 64 bytes so seeded streams stay deterministic.
// Zero (probability ~2^-252) is rejected to keep scalars invertible.
func RandomScalar(rng io.Reader) (Scalar, error) {
	var b [64]byte
	for {
		if _, err := io.ReadFull(rng, b[:]); err != nil {
			return nil, err
		}
		k := new(big.Int).SetBytes(b[:])
		k.Mod(k, edOrder)
		if k.Sign() != 0 {
			return ScalarFromBig(k), nil
		}
	}
}

// Identity returns the neutral element.
func Identity() Element {
	var p edPoint
	p.identity()
	return Element{ed: &p}
}

// Generator returns the standard base point.
func Generator() Element {
	p := edBase
	return Element{ed: &p}
}

// edBaseComb lazily builds the base-point comb table (width 8: 32
// positions, a one-time cost amortized over the process lifetime).
var (
	edBaseTableOnce sync.Once
	edBaseTable     *edCombTable
)

func edBaseComb() *edCombTable {
	edBaseTableOnce.Do(func() {
		b := edBase
		edBaseTable = buildEdComb(&b, 8)
	})
	return edBaseTable
}

// BaseMul returns k*G via the precomputed base table.
func BaseMul(k Scalar) Element {
	kb := mustScalar(k)
	var out edPoint
	edBaseComb().mulComb(&out, kb[:])
	return Element{ed: &out}
}

// Mul returns k*P for a variable point.
func Mul(p Element, k Scalar) Element {
	kb := mustScalar(k)
	var digits [258]int8
	n := wnafDigits(kb[:], &digits)
	var out edPoint
	edScalarMulWNAF(&out, digits[:n], p.point())
	return Element{ed: &out}
}

// MulBatch sets dst[i] = k*ps[i] for a scalar fixed across the batch,
// recoding the scalar once per slice. dst and ps may alias. Results are
// projective; call Normalize before encoding.
func MulBatch(dst, ps []Element, k Scalar) {
	if len(dst) != len(ps) {
		panic("group: MulBatch length mismatch")
	}
	kb := mustScalar(k)
	var digits [258]int8
	n := wnafDigits(kb[:], &digits)
	for i := range ps {
		var out edPoint
		edScalarMulWNAF(&out, digits[:n], ps[i].point())
		dst[i] = Element{ed: &out}
	}
}

// Table is a precomputed fixed-point multiplication table.
type Table struct {
	comb *edCombTable
}

// Mul returns k*P for the table's fixed point P. The result is projective;
// batch callers should Normalize slices of results.
func (t *Table) Mul(k Scalar) Element {
	kb := mustScalar(k)
	var out edPoint
	t.comb.mulComb(&out, kb[:])
	return Element{ed: &out}
}

// Precompute builds a comb table for a point fixed across batches.
func Precompute(p Element) *Table {
	pt := *p.point()
	normalizeEd([]*edPoint{&pt})
	return &Table{comb: buildEdComb(&pt, 6)}
}

// Add returns p + q.
func Add(p, q Element) Element {
	var out edPoint
	out.add(p.point(), q.point())
	return Element{ed: &out}
}

// Sub returns p - q.
func Sub(p, q Element) Element {
	var nq, out edPoint
	nq.neg(q.point())
	out.add(p.point(), &nq)
	return Element{ed: &out}
}

// Neg returns -p.
func Neg(p Element) Element {
	var out edPoint
	out.neg(p.point())
	return Element{ed: &out}
}

// Equal reports p == q (projective-aware).
func Equal(p, q Element) bool { return p.point().equal(q.point()) }

// IsIdentity reports whether p is the neutral element.
func IsIdentity(p Element) bool { return p.point().isIdentity() }

// HashToElement maps data into the prime-order subgroup: SHA-512 with a
// domain label, the ristretto255 Elligator map, and cofactor clearing.
func HashToElement(data []byte) Element {
	return Element{ed: edHashToPoint(data)}
}

// Normalize converts a slice of elements to affine form with one shared
// field inversion.
func Normalize(ps []Element) {
	pts := make([]*edPoint, len(ps))
	for i := range ps {
		pts[i] = ps[i].point()
		ps[i] = Element{ed: pts[i]}
	}
	normalizeEd(pts)
}

// identityEncoding is the 1-byte identity sentinel of both encodings.
var identityEncoding = []byte{0}

// affine returns p's point with z == 1, normalizing it in place if needed.
func affine(p Element) *edPoint {
	pt := p.point()
	var one fe25519
	one.One()
	if !pt.z.Equal(&one) {
		normalizeEd([]*edPoint{pt})
	}
	return pt
}

// Encode returns the wire encoding: {0} for the identity, else the 65-byte
// form 0x05 || x || y.
func Encode(p Element) []byte {
	if IsIdentity(p) {
		return identityEncoding
	}
	pt := affine(p)
	out := make([]byte, WireSize)
	out[0] = wireTag
	pt.x.Bytes(out[1:1:33])
	pt.y.Bytes(out[33:33:65])
	return out
}

// Compress returns the short encoding used as a map key: {0} for the
// identity, else 32 bytes of y with the sign of x in the top bit.
func Compress(p Element) []byte {
	if IsIdentity(p) {
		return identityEncoding
	}
	pt := affine(p)
	out := pt.y.Bytes(make([]byte, 0, 32))
	if pt.x.IsNegative() {
		out[31] |= 0x80
	}
	return out
}

// edOnCurve checks -x^2 + y^2 == 1 + d*x^2*y^2.
func edOnCurve(x, y *fe25519) bool {
	var x2, y2, lhs, rhs, one fe25519
	one.One()
	x2.Square(x)
	y2.Square(y)
	lhs.Sub(&y2, &x2)
	rhs.Mul(&x2, &y2)
	rhs.Mul(&rhs, &edD)
	rhs.Add(&rhs, &one)
	return lhs.Equal(&rhs)
}

// Decode parses an encoding produced by Encode or Compress. It rejects
// non-canonical coordinates, off-curve points, and the identity in any
// form but the 1-byte sentinel, so every accepted input re-encodes to
// itself.
func Decode(b []byte) (Element, error) {
	switch {
	case len(b) == 1 && b[0] == 0:
		return Identity(), nil
	case len(b) == WireSize && b[0] == wireTag:
		if !isCanonicalBytes25519(b[1:33]) || b[32]&0x80 != 0 ||
			!isCanonicalBytes25519(b[33:65]) || b[64]&0x80 != 0 {
			return Element{}, errors.New("group: non-canonical coordinate")
		}
		var pt edPoint
		pt.x.SetBytes(b[1:33])
		pt.y.SetBytes(b[33:65])
		if !edOnCurve(&pt.x, &pt.y) {
			return Element{}, errors.New("group: point not on curve")
		}
		pt.z.One()
		pt.t.Mul(&pt.x, &pt.y)
		if pt.isIdentity() {
			return Element{}, errors.New("group: identity must use the 1-byte encoding")
		}
		return Element{ed: &pt}, nil
	case len(b) == 32:
		yb := make([]byte, 32)
		copy(yb, b)
		xNeg := yb[31]&0x80 != 0
		yb[31] &= 0x7f
		if !isCanonicalBytes25519(yb) {
			return Element{}, errors.New("group: non-canonical y")
		}
		var y fe25519
		y.SetBytes(yb)
		pt, ok := edFromY(&y, xNeg)
		if !ok {
			return Element{}, errors.New("group: invalid compressed point")
		}
		if pt.isIdentity() {
			return Element{}, errors.New("group: identity must use the 1-byte encoding")
		}
		return Element{ed: pt}, nil
	}
	return Element{}, errors.New("group: invalid point encoding")
}

// PrepareDH turns a private scalar into the form MulDH expects: it folds
// 8^-1 mod l into the scalar, so MulDH's cofactor clearing (a factor of 8)
// cancels for honest subgroup points, leaving k*P.
func PrepareDH(k Scalar) Scalar {
	v := new(big.Int).SetBytes(k)
	v.Mul(v, edInv8)
	v.Mod(v, edOrder)
	return ScalarFromBig(v)
}

// MulDH computes the Diffie-Hellman product of an untrusted decoded point
// and a prepared scalar, multiplying the point by the cofactor first so a
// small-subgroup component can never probe the private key.
func MulDH(p Element, k Scalar) Element {
	var cleared edPoint
	cleared.clearCofactor(p.point())
	return Mul(Element{ed: &cleared}, k)
}

// SharedBytes derives the 32-byte KDF input from a DH result: its
// compressed encoding.
func SharedBytes(p Element) []byte { return Compress(p) }
