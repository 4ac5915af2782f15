package elgamal_test

import (
	"bytes"
	"encoding/hex"
	"math/big"
	mrand "math/rand/v2"
	"testing"

	"prochlo/internal/crypto/elgamal"
	"prochlo/internal/crypto/hybrid"
)

// The golden vectors pin the group wire format through the public API of
// the El Gamal and hybrid layers: the 65-byte 0x05 || x || y point form,
// the 32-byte compressed form, the 1-byte identity, the crowd-ID hash, and
// the HKDF input of a seal. Every daemon, persisted key file and in-flight
// WAL record depends on these bytes, so any change here is a wire break.

func mustHex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func checkHex(t *testing.T, what string, got []byte, want string) {
	t.Helper()
	if !bytes.Equal(got, mustHex(t, want)) {
		t.Errorf("%s = %x, want %s", what, got, want)
	}
}

// TestGoldenBaseMul pins Encode and Compress of k*G for fixed scalars and
// checks that both forms parse back to the same point.
func TestGoldenBaseMul(t *testing.T) {
	for _, tc := range []struct {
		k          int64
		wire, comp string
	}{
		{1, "051ad5258f602d56c9b2a7259560c72c695cdcd6fd31e2a4c0fe536ecdd33669215866666666666666666666666666666666666666666666666666666666666666", "5866666666666666666666666666666666666666666666666666666666666666"},
		{2, "050ece43284ea1c5835fa4d715458e0d08ace733187d3b043d6c045a9f4c38ab36c9a3f86aae465f0e56513864510f3997561fa2c9e85ea21dc2292309f3cd6022", "c9a3f86aae465f0e56513864510f3997561fa2c9e85ea21dc2292309f3cd6022"},
		{0x5eed, "05743e4fb3355dc0f3428b957c0a1d17660f8459b28798290e61cc7c8259def43a00acb4afecf6e8c4559794e51ef80d12d49ee700df9552e9c43fe7cc90840552", "00acb4afecf6e8c4559794e51ef80d12d49ee700df9552e9c43fe7cc90840552"},
	} {
		kp, err := elgamal.NewKeyPair(big.NewInt(tc.k))
		if err != nil {
			t.Fatal(err)
		}
		checkHex(t, "Encode("+big.NewInt(tc.k).String()+"*G)", kp.H.Bytes(), tc.wire)
		checkHex(t, "Compress("+big.NewInt(tc.k).String()+"*G)", kp.H.Compressed(), tc.comp)
		for _, enc := range [][]byte{kp.H.Bytes(), kp.H.Compressed()} {
			p, err := elgamal.ParsePoint(enc)
			if err != nil || !p.Equal(kp.H) {
				t.Errorf("ParsePoint(%x) = %v, %v", enc, p, err)
			}
		}
	}
	checkHex(t, "identity", elgamal.Point{}.Bytes(), "00")
	checkHex(t, "compressed identity", elgamal.Point{}.Compressed(), "00")
}

// TestGoldenHashToPoint pins the crowd-ID hash: every encoder and both
// shufflers must map a crowd ID to the same point.
func TestGoldenHashToPoint(t *testing.T) {
	p := elgamal.HashToPoint([]byte("crowd-42"))
	checkHex(t, "HashToPoint(crowd-42)", p.Bytes(), "0502e16a3d7cc0a7b270d1767183d3af5fe5c1e4a358280fac914ff45c428415423784ee5f69ded9d20dcd64273d3343d3ed06b88c9d4d5ed607a7d74c217a110f")
	checkHex(t, "Compress(HashToPoint(crowd-42))", p.Compressed(), "3784ee5f69ded9d20dcd64273d3343d3ed06b88c9d4d5ed607a7d74c217a110f")
}

// TestGoldenHybrid pins a seeded hybrid key pair and a seeded seal, which
// covers the public-key encoding, the ephemeral-key encoding and the KDF
// input (a change to any of them changes the AES key and so the ciphertext).
func TestGoldenHybrid(t *testing.T) {
	priv, err := hybrid.GenerateKey(mrand.NewChaCha8([32]byte{1}))
	if err != nil {
		t.Fatal(err)
	}
	pub := priv.Public().Bytes()
	checkHex(t, "seeded public key", pub, "057d23110be23697e5b18f5f8881f7a362e57e570819834ec7da8027273b965540b290fc1afa0c72a983b0811b14678028239d5fad815453a04d41cf50e6a66621")
	parsed, err := hybrid.ParsePublicKey(pub)
	if err != nil {
		t.Fatal(err)
	}
	sealed, err := hybrid.Seal(mrand.NewChaCha8([32]byte{2}), parsed, []byte("golden report"), []byte("crowd-42"))
	if err != nil {
		t.Fatal(err)
	}
	checkHex(t, "seeded seal", sealed, "05d74d0ce84a5026ae9998c0fc8de8f4c169f8b89c6f3a88c0bea622449157ef7a1d12a1dbd56658207d533cf6a5dccf7b128b1216f91bf6a176a0d4bc515e41300d2bbebddd9e7c35b87c9557a066dd319ce0c8735a94397f24f10e394ecd6b941f7db58e2dcac2d60d")
	pt, err := priv.Open(sealed, []byte("crowd-42"))
	if err != nil || string(pt) != "golden report" {
		t.Fatalf("Open = %q, %v", pt, err)
	}
}
