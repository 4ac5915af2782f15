package main

import (
	"bufio"
	"bytes"
	crand "crypto/rand"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"prochlo/internal/core"
	"prochlo/internal/crypto/elgamal"
	"prochlo/internal/crypto/hybrid"
	"prochlo/internal/encoder"
	"prochlo/internal/metrics"
	"prochlo/internal/transport"
)

// span is one timed call the benchmark made into a layer. Spans of one
// submit share Batch; Parent is 0 for a root span.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Batch  int64  `json:"batch"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the run's start
	End    int64  `json:"end_ns"`
}

// submitTrace is the traced client's per-submit record.
type submitTrace struct {
	start                time.Time
	encode, submit       time.Duration
	reports              int
	envBytes, frameBytes int
}

// tracedClient replaces RemotePipeline.SubmitBatch with the same public
// steps — encode, partition stamping, balanced submission with the
// default epoch-full retries — each timed on its own.
type tracedClient struct {
	origin time.Time
	benc   *encoder.BlindedClient
	bal    *transport.Balancer
	parts  int
	anlzs  []*transport.AnalyzerClient

	// Indexed by client; each load client appends only to its own slot.
	spans  [][]span
	trace  [][]submitTrace
	frames [][]byte
}

// dialTraced builds the traced client against f, fetching keys over the
// same RPCs DialRemoteChainFleet uses, with the balancer's metrics on reg.
func dialTraced(f *fleet, clients int, reg *metrics.Registry) (_ *tracedClient, err error) {
	tc := &tracedClient{parts: len(f.s2Addrs), spans: make([][]span, clients+1),
		trace: make([][]submitTrace, clients), frames: make([][]byte, clients)}
	defer func() {
		if err != nil {
			tc.close()
		}
	}()
	s2, err := transport.Dial(f.s2Addrs[0])
	if err != nil {
		return nil, err
	}
	keys, err := s2.BlindedKeys()
	s2.Close()
	if err != nil {
		return nil, err
	}
	for _, addr := range f.anlzAddrs {
		a, err := transport.DialAnalyzer(addr)
		if err != nil {
			return nil, err
		}
		tc.anlzs = append(tc.anlzs, a)
	}
	anlzKey, err := tc.anlzs[0].AnalyzerKey()
	if err != nil {
		return nil, err
	}
	benc := &encoder.BlindedClient{Rand: crand.Reader}
	if benc.Shuffler2Blinding, err = elgamal.ParsePoint(keys.Blinding); err != nil {
		return nil, err
	}
	if benc.Shuffler2Key, err = hybrid.ParsePublicKey(keys.Key); err != nil {
		return nil, err
	}
	if benc.AnalyzerKey, err = hybrid.ParsePublicKey(anlzKey); err != nil {
		return nil, err
	}
	tc.benc = benc
	tc.bal, err = transport.NewBalancer(f.s1Addrs, transport.BalancerConfig{
		Metrics: reg, MetricsLabels: metrics.Labels{"role": "entry"}})
	return tc, err
}

func (tc *tracedClient) close() {
	if tc.bal != nil {
		tc.bal.Close()
	}
	for _, a := range tc.anlzs {
		a.Close()
	}
}

func (tc *tracedClient) since(t time.Time) int64 { return int64(t.Sub(tc.origin)) }

// record appends a span for client slot c and returns its id.
func (tc *tracedClient) record(c int, parent, batchID int64, name string, start, end time.Time) int64 {
	id := int64(c)<<40 | int64(len(tc.spans[c])+1)
	tc.spans[c] = append(tc.spans[c], span{ID: id, Parent: parent, Batch: batchID, Name: name,
		Start: tc.since(start), End: tc.since(end)})
	return id
}

// submit is the traced counterpart of RemotePipeline.SubmitBatch.
func (tc *tracedClient) submit(c int, b *batch, id int64) error {
	t0 := time.Now()
	envs, err := tc.benc.EncodeBatch(b.labels, b.data, encodeWorkers)
	t1 := time.Now()
	if err != nil {
		return err
	}
	if tc.parts > 1 {
		for i := range envs {
			envs[i].Partition = core.PartitionOf(core.HashCrowdID(b.labels[i]), tc.parts)
		}
	}
	t2 := time.Now()
	n, err := tc.bal.SubmitAllBlinded(envs, transport.DefaultSubmitRetries, transport.DefaultSubmitDelay)
	t3 := time.Now()

	root := tc.record(c, 0, id, "prochlo.SubmitBatch", t0, t3)
	tc.record(c, root, id, "encoder.EncodeBatch", t0, t1)
	tc.record(c, root, id, "core.PartitionOf", t1, t2)
	tc.record(c, root, id, "transport.Balancer.SubmitAllBlinded", t2, t3)
	tr := submitTrace{start: t0, encode: t1.Sub(t0), submit: t3.Sub(t2), reports: len(envs)}
	for i := range envs {
		tr.envBytes += len(envs[i].CrowdC1) + len(envs[i].CrowdC2) + len(envs[i].Blob)
	}
	tc.frames[c] = core.AppendBatch(tc.frames[c][:0], core.Batch{Blinded: envs})
	tr.frameBytes = len(tc.frames[c])
	tc.trace[c] = append(tc.trace[c], tr)
	if err != nil && n > 0 {
		return fmt.Errorf("batch partially submitted (%d of %d reports): %w", n, len(envs), err)
	}
	return err
}

// histogram reads and merges every analyzer partition's histogram, timing
// the reads as one span.
func (tc *tracedClient) histogram() (map[string]int, time.Duration, error) {
	counts := make(map[string]int)
	t0 := time.Now()
	for i, a := range tc.anlzs {
		c, _, err := a.Histogram()
		if err != nil {
			return nil, 0, fmt.Errorf("analyzer partition %d histogram: %w", i, err)
		}
		for k, v := range c {
			counts[k] += v
		}
	}
	t1 := time.Now()
	tc.record(len(tc.spans)-1, 0, -1, "transport.AnalyzerClient.Histogram", t0, t1)
	return counts, t1.Sub(t0), nil
}

// writeSpans dumps every span as one JSON object per line.
func (tc *tracedClient) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, spans := range tc.spans {
		for i := range spans {
			if err := enc.Encode(&spans[i]); err != nil {
				f.Close()
				return err
			}
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// promSample is one sample line of the registry's text exposition.
type promSample struct {
	name   string
	labels map[string]string
	value  float64
}

// scrape reads reg through its text exposition, as a /metrics scrape does.
func scrape(reg *metrics.Registry) []promSample {
	var buf bytes.Buffer
	reg.WriteTo(&buf)
	var out []promSample
	for _, line := range strings.Split(buf.String(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[sp+1:], 64)
		if err != nil {
			continue
		}
		s := promSample{name: line[:sp], labels: map[string]string{}, value: v}
		if i := strings.IndexByte(s.name, '{'); i >= 0 {
			for _, kv := range strings.Split(strings.TrimSuffix(s.name[i+1:], "}"), ",") {
				if k, val, ok := strings.Cut(kv, "="); ok {
					s.labels[k] = strings.Trim(val, `"`)
				}
			}
			s.name = s.name[:i]
		}
		out = append(out, s)
	}
	return out
}

// sum adds the samples named name, restricted to role unless role is "".
func sum(samples []promSample, name, role string) float64 {
	total := 0.0
	for _, s := range samples {
		if s.name == name && (role == "" || s.labels["role"] == role) {
			total += s.value
		}
	}
	return total
}

// inflightSampler samples prochlo_epochs_in_flight per role about ten
// times a second until stopped; the mean is over samples and replicas.
type inflightSampler struct {
	stop chan struct{}
	done sync.WaitGroup
	sum  map[string]float64
	n    map[string]int
}

func sampleInflight(reg *metrics.Registry) *inflightSampler {
	s := &inflightSampler{stop: make(chan struct{}), sum: map[string]float64{}, n: map[string]int{}}
	s.done.Add(1)
	go func() {
		defer s.done.Done()
		t := time.NewTicker(100 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				for _, p := range scrape(reg) {
					if p.name == "prochlo_epochs_in_flight" {
						s.sum[p.labels["role"]] += p.value
						s.n[p.labels["role"]]++
					}
				}
			}
		}
	}()
	return s
}

// finish stops sampling and returns the per-role means.
func (s *inflightSampler) finish() map[string]float64 {
	close(s.stop)
	s.done.Wait()
	out := map[string]float64{}
	for role, n := range s.n {
		out[role] = s.sum[role] / float64(n)
	}
	return out
}
