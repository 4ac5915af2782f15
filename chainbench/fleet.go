package main

import (
	crand "crypto/rand"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"strconv"

	"prochlo"
	"prochlo/internal/analyzer"
	"prochlo/internal/crypto/elgamal"
	"prochlo/internal/crypto/hybrid"
	"prochlo/internal/dp"
	"prochlo/internal/metrics"
	"prochlo/internal/shuffler"
	"prochlo/internal/transport"
)

// thresholdT is the thresholding tier's minimum surviving crowd size: no
// value submitted fewer times can reach the analyzer.
var thresholdT = dp.PaperThresholdNoise.T

// fleet is an in-process blinded-chain fleet over loopback TCP, built with
// the constructors cmd/prochlod uses. Replicas of a key-holding tier share
// key material, as prochlod daemons started from one -key-file do.
type fleet struct {
	s1Addrs, s2Addrs, anlzAddrs []string
	anlzSvcs                    []*transport.AnalyzerService
	walDir                      string
	closers                     []func()
}

// close stops every service and listener in reverse start order and
// removes the fleet's WAL directories.
func (f *fleet) close() {
	for i := len(f.closers) - 1; i >= 0; i-- {
		f.closers[i]()
	}
	f.closers = nil
	if f.walDir != "" {
		os.RemoveAll(f.walDir)
	}
}

// startFleet builds w's fleet. Each replica's shuffle and threshold RNG is
// seeded from the workload seed. A non-nil reg receives every service's
// metrics under {role, replica} labels; walRoot holds the WAL directories.
func startFleet(w workload, seed uint64, walRoot string, reg *metrics.Registry) (_ *fleet, err error) {
	f := &fleet{}
	defer func() {
		if err != nil {
			f.close()
		}
	}()
	if w.wal {
		if err := os.MkdirAll(walRoot, 0o755); err != nil {
			return nil, err
		}
		if f.walDir, err = os.MkdirTemp(walRoot, "wal-"); err != nil {
			return nil, err
		}
	}
	labels := func(role string, i int) metrics.Labels {
		return metrics.Labels{"role": role, "replica": strconv.Itoa(i)}
	}
	epochCfg := func(h hop, role string, i int) transport.EpochConfig {
		cfg := transport.EpochConfig{FlushAt: h.flushAt, Interval: h.interval}
		if f.walDir != "" {
			cfg.WALDir = filepath.Join(f.walDir, role+"-"+strconv.Itoa(i))
		}
		if reg != nil {
			cfg.Metrics, cfg.MetricsLabels = reg, labels(role, i)
		}
		return cfg
	}
	serve := func(name string, svc any) (string, error) {
		l, err := transport.Serve("127.0.0.1:0", name, svc)
		if err != nil {
			return "", err
		}
		f.closers = append(f.closers, func() { l.Close() })
		return l.Addr().String(), nil
	}

	anlzPriv, err := hybrid.GenerateKey(crand.Reader)
	if err != nil {
		return nil, err
	}
	for i := 0; i < w.anlz; i++ {
		svc := transport.NewAnalyzerService(&analyzer.Analyzer{Priv: anlzPriv}, anlzPriv.Public().Bytes())
		svc.RegisterMetrics(reg, labels("analyzer", i))
		addr, err := serve("Analyzer", svc)
		if err != nil {
			return nil, err
		}
		f.anlzSvcs = append(f.anlzSvcs, svc)
		f.anlzAddrs = append(f.anlzAddrs, addr)
	}

	blindKP, err := elgamal.GenerateKeyPair(crand.Reader)
	if err != nil {
		return nil, err
	}
	s2Priv, err := hybrid.GenerateKey(crand.Reader)
	if err != nil {
		return nil, err
	}
	for i := 0; i < w.s2; i++ {
		s2 := &shuffler.Shuffler2{
			Blinding:  blindKP,
			Priv:      s2Priv,
			Threshold: shuffler.Threshold{Noise: dp.PaperThresholdNoise},
			Rand:      rand.New(rand.NewPCG(seed, 1000+uint64(i))),
			MinBatch:  1,
		}
		svc, err := transport.NewShuffler2FleetService(s2, f.anlzAddrs, epochCfg(w.hop2, "shuffler2", i))
		if err != nil {
			return nil, err
		}
		f.closers = append(f.closers, func() { svc.Close() })
		addr, err := serve("Shuffler", svc)
		if err != nil {
			return nil, err
		}
		f.s2Addrs = append(f.s2Addrs, addr)
	}

	for i := 0; i < w.s1; i++ {
		s1, err := shuffler.NewShuffler1(rand.New(rand.NewPCG(seed, 2000+uint64(i))))
		if err != nil {
			return nil, err
		}
		s1.MinBatch = 1
		svc, err := transport.NewShuffler1FleetService(s1, f.s2Addrs, epochCfg(w.hop1, "shuffler1", i))
		if err != nil {
			return nil, err
		}
		f.closers = append(f.closers, func() { svc.Close() })
		addr, err := serve("Shuffler", svc)
		if err != nil {
			return nil, err
		}
		f.s1Addrs = append(f.s1Addrs, addr)
	}
	return f, nil
}

// encodeWorkers is each load client's encode pool: every client encodes
// serially on its own goroutine, so the load is exactly the workload's
// client goroutines.
const encodeWorkers = 1

// dial connects the public client to the fleet's entry tier.
func (f *fleet) dial() (*prochlo.RemotePipeline, error) {
	rp, err := prochlo.DialRemoteChainFleet(f.s1Addrs, f.s2Addrs, f.anlzAddrs, prochlo.WithRemoteWorkers(encodeWorkers))
	if err != nil {
		return nil, fmt.Errorf("dial fleet: %w", err)
	}
	return rp, nil
}

// analyzerStats sums the analyzer partitions' database and undecryptable
// counts, read from the services directly.
func (f *fleet) analyzerStats() (records, undecryptable int) {
	for _, a := range f.anlzSvcs {
		var s transport.AnalyzerStats
		if a.Stats(struct{}{}, &s) == nil {
			records += s.Records
			undecryptable += s.Undecryptable
		}
	}
	return records, undecryptable
}
