package transport

import (
	crand "crypto/rand"
	"errors"
	"math/rand/v2"
	"net/rpc"
	"testing"
	"time"

	"prochlo/internal/analyzer"
	"prochlo/internal/core"
	"prochlo/internal/crypto/elgamal"
	"prochlo/internal/crypto/hybrid"
	"prochlo/internal/dp"
	"prochlo/internal/encoder"
	"prochlo/internal/shuffler"
)

// TestNetworkedPipeline runs the full three-party flow over localhost TCP:
// client -> shuffler service -> analyzer service.
func TestNetworkedPipeline(t *testing.T) {
	anlzPriv, err := hybrid.GenerateKey(crand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	anlzSvc := NewAnalyzerService(&analyzer.Analyzer{Priv: anlzPriv}, anlzPriv.Public().Bytes())
	anlzL, err := Serve("127.0.0.1:0", "Analyzer", anlzSvc)
	if err != nil {
		t.Fatal(err)
	}
	defer anlzL.Close()

	shufPriv, err := hybrid.GenerateKey(crand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	sh := &shuffler.Shuffler{
		Priv:      shufPriv,
		Threshold: shuffler.Threshold{Noise: dp.ThresholdNoise{T: 20, D: 10, Sigma: 2}},
		Rand:      rand.New(rand.NewPCG(1, 2)),
	}
	shufSvc, err := NewStageShufflerFleetService(sh, shufPriv.Public().Bytes(), []string{anlzL.Addr().String()}, EpochConfig{})
	if err != nil {
		t.Fatal(err)
	}
	defer shufSvc.Close()
	shufL, err := Serve("127.0.0.1:0", "Shuffler", shufSvc)
	if err != nil {
		t.Fatal(err)
	}
	defer shufL.Close()

	// Client: fetch the shuffler key over the network, encode, submit.
	cl, err := Dial(shufL.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	keyBytes, err := cl.ShufflerKey()
	if err != nil {
		t.Fatal(err)
	}
	shufKey, err := hybrid.ParsePublicKey(keyBytes)
	if err != nil {
		t.Fatal(err)
	}
	enc := &encoder.Client{ShufflerKey: shufKey, AnalyzerKey: anlzPriv.Public(), Rand: crand.Reader}
	submit := func(crowd, data string, n int) {
		for i := 0; i < n; i++ {
			env, err := enc.Encode(core.Report{CrowdID: core.HashCrowdID(crowd), Data: []byte(data)})
			if err != nil {
				t.Fatal(err)
			}
			if err := cl.SubmitBatch([]core.Envelope{env}); err != nil {
				t.Fatal(err)
			}
		}
	}
	submit("c:popular", "popular-value", 80)
	submit("c:rare", "rare-value", 3)

	before, err := cl.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if before.Pending != 83 {
		t.Fatalf("pending = %d, want 83", before.Pending)
	}

	drained, err := cl.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if stats := drained.Cumulative; stats.Crowds != 2 || stats.CrowdsForwarded != 1 {
		t.Errorf("stats = %+v", stats)
	}

	// Query the analyzer directly.
	ac, err := rpc.Dial("tcp", anlzL.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer ac.Close()
	var hist HistogramReply
	if err := ac.Call("Analyzer.Histogram", struct{}{}, &hist); err != nil {
		t.Fatal(err)
	}
	if hist.Counts["rare-value"] != 0 {
		t.Error("rare value leaked through networked thresholding")
	}
	if c := hist.Counts["popular-value"]; c < 50 || c > 80 {
		t.Errorf("popular count = %d, want ~70", c)
	}
	if hist.Undecryptable != 0 {
		t.Errorf("undecryptable = %d", hist.Undecryptable)
	}
}

func TestDialBadAddress(t *testing.T) {
	if _, err := Dial("127.0.0.1:1"); err == nil {
		t.Error("dialing a closed port succeeded")
	}
}

// TestShufflerRoleBatchKinds is the role × batch-kind table for the one
// shuffler service type, driven over binary frames: every role accepts only
// the kind it ingests and refuses the others with a server error (not
// transient, so nothing redials or fails over) without ingesting anything;
// and each key or quote RPC fails on every role that holds no such
// material.
func TestShufflerRoleBatchKinds(t *testing.T) {
	anlzPriv, err := hybrid.GenerateKey(crand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	anlzL, err := Serve("127.0.0.1:0", "Analyzer", NewAnalyzerService(&analyzer.Analyzer{Priv: anlzPriv}, anlzPriv.Public().Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer anlzL.Close()
	serve := func(svc *ShufflerService) string {
		t.Helper()
		// Abort, not Close: the garbage items this test ingests must never
		// reach a stage.
		t.Cleanup(svc.Abort)
		l, err := Serve("127.0.0.1:0", "Shuffler", svc)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
		return l.Addr().String()
	}

	shufPriv, err := hybrid.GenerateKey(crand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := NewStageShufflerFleetService(&shuffler.Shuffler{Priv: shufPriv, Rand: rand.New(rand.NewPCG(1, 1))},
		shufPriv.Public().Bytes(), []string{anlzL.Addr().String()}, EpochConfig{})
	if err != nil {
		t.Fatal(err)
	}
	blindKP, err := elgamal.GenerateKeyPair(crand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	s2Priv, err := hybrid.GenerateKey(crand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewShuffler2FleetService(&shuffler.Shuffler2{Blinding: blindKP, Priv: s2Priv, Rand: rand.New(rand.NewPCG(2, 2))},
		[]string{anlzL.Addr().String()}, EpochConfig{})
	if err != nil {
		t.Fatal(err)
	}
	s2Addr := serve(s2)
	sh1, err := shuffler.NewShuffler1(rand.New(rand.NewPCG(3, 3)))
	if err != nil {
		t.Fatal(err)
	}
	s1, err := NewShuffler1FleetService(sh1, []string{s2Addr}, EpochConfig{})
	if err != nil {
		t.Fatal(err)
	}

	batches := []struct {
		kind   core.BatchKind
		method uint8
		batch  core.Batch
	}{
		{core.KindEnvelopes, wireSubmitBatch, core.Batch{Envelopes: []core.Envelope{{Blob: []byte("e")}}}},
		{core.KindBlinded, wireSubmitBlinded, core.Batch{Blinded: []core.BlindedEnvelope{{Blob: []byte("b")}}}},
		{core.KindPayloads, wireForward, core.Batch{Payloads: [][]byte{[]byte("p")}}},
	}
	roles := []struct {
		name                     string
		svc                      *ShufflerService
		addr                     string
		ingests                  core.BatchKind
		publicKey, keys, attests bool
	}{
		{"plain", plain, serve(plain), core.KindEnvelopes, true, false, false},
		{"shuffler1", s1, serve(s1), core.KindBlinded, false, false, false},
		{"shuffler2", s2, s2Addr, core.KindBlinded, false, true, false},
	}
	for _, role := range roles {
		t.Run(role.name, func(t *testing.T) {
			wc, err := dialWire(role.addr, time.Second, 10*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			defer wc.close()
			for i, tc := range batches {
				var before, after ServiceStats
				role.svc.Stats(struct{}{}, &before) //nolint:errcheck // Stats never fails
				accepted, err := wc.call(tc.method, 5, int64(i+1), tc.batch)
				role.svc.Stats(struct{}{}, &after) //nolint:errcheck
				if tc.kind == role.ingests {
					if err != nil || accepted != 1 || after.Accepted != before.Accepted+1 {
						t.Errorf("%v: (%d, %v), accepted %d -> %d; want its own kind ingested",
							tc.kind, accepted, err, before.Accepted, after.Accepted)
					}
					continue
				}
				var se rpc.ServerError
				if !errors.As(err, &se) || IsTransient(err) {
					t.Errorf("%v: err = %v (%T), want a non-transient server error", tc.kind, err, err)
				}
				if after.Accepted != before.Accepted {
					t.Errorf("%v: accepted %d -> %d, want a refused kind to ingest nothing",
						tc.kind, before.Accepted, after.Accepted)
				}
			}

			cl, err := Dial(role.addr)
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			if _, err := cl.ShufflerKey(); (err == nil) != role.publicKey {
				t.Errorf("PublicKey err = %v, want served = %v", err, role.publicKey)
			}
			if _, err := cl.BlindedKeys(); (err == nil) != role.keys {
				t.Errorf("Keys err = %v, want served = %v", err, role.keys)
			}
			if _, err := cl.Attestation([32]byte{}); (err == nil) != role.attests {
				t.Errorf("Attestation err = %v, want served = %v", err, role.attests)
			}
		})
	}
}
