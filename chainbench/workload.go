package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"strconv"
	"time"
)

// hop configures one shuffler tier's epoch policy.
type hop struct {
	flushAt  int           // occupancy cut (a cap when interval is set)
	interval time.Duration // epoch timer; 0 disables timer cuts
}

// workload is one named load shape against one loopback fleet.
type workload struct {
	name string

	s1, s2, anlz int // replicas per tier
	hop1, hop2   hop
	wal          bool // fsync-per-submission WAL on every shuffler hop

	clients int
	batch   int     // reports per submit
	payload int     // payload bytes (a multiple of 4)
	rate    float64 // open-loop offered reports/s fleet-wide; 0 = closed loop
	// maxRate over-estimates closed-loop capacity; it only sizes the
	// pre-generated input pool (the pool wraps if a run outpaces it).
	maxRate float64

	labels labelDist
}

// labelDist draws crowd label ids. Ids [0, hot) are hot crowds, drawn
// uniformly or with Zipf(1) weights, with total probability pHot; ids
// [hot, hot+tail) are a uniformly drawn tail, never submitted often enough
// to survive thresholding.
type labelDist struct {
	hot  int
	zipf bool
	pHot float64
	tail int
}

func (d labelDist) n() int { return d.hot + d.tail }

// sampler returns a draw function over label ids.
func (d labelDist) sampler(rng *rand.Rand) func() uint32 {
	cum := make([]float64, d.hot)
	total := 0.0
	for k := range cum {
		if d.zipf {
			total += 1 / float64(k+1)
		} else {
			total++
		}
		cum[k] = total
	}
	return func() uint32 {
		if d.tail > 0 && rng.Float64() >= d.pHot {
			return uint32(d.hot + rng.IntN(d.tail))
		}
		u := rng.Float64() * total
		return uint32(sort.SearchFloat64s(cum, u))
	}
}

// workloads are the benchmark's named load shapes. README.md gives the
// reason each exists and the layers it is meant to move.
var workloads = []workload{
	{
		name: "chain-paced",
		s1:   1, s2: 1, anlz: 1,
		// 250 ms epochs of ~300 reports keep each cut's stall short; 4
		// crowds keep ~75 reports per crowd per epoch, well above T + D.
		// 5-report batches give 240 submits/s, so p99 rests on over 100
		// samples per 45 s run; with 10 its run-to-run spread doubled.
		hop1:    hop{flushAt: 8000, interval: 250 * time.Millisecond},
		hop2:    hop{flushAt: 8000, interval: 250 * time.Millisecond},
		clients: 2, batch: 5, payload: 16, rate: 1200,
		labels: labelDist{hot: 4, pHot: 1},
	},
	{
		name: "fleet-durable",
		s1:   2, s2: 2, anlz: 2,
		// As with chain-paced, small epochs keep the stages' bursts short,
		// so a submit's latency tracks the CPU share it gets instead of
		// whether it fell into a burst. 4 Zipf crowds keep the smallest at
		// about 90 reports per thresholding replica's 1,000-report epoch,
		// well above T + D.
		hop1: hop{flushAt: 500}, hop2: hop{flushAt: 1000},
		wal:     true,
		clients: 2, batch: 10, payload: 1024, maxRate: 4000,
		labels: labelDist{hot: 4, zipf: true, pHot: 0.75, tail: 32768},
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// batch is one pre-generated submission.
type batch struct {
	ids    []uint32 // label id of each report
	labels []string
	data   [][]byte
}

// inputs holds every label and payload a run submits, generated from the
// seed before any timing starts.
type inputs struct {
	labels []string // by label id
	values []byte   // value of id j is values[4j : 4j+payload]
	pools  [][]batch
}

// value returns label id j's payload: payload/4 consecutive big-endian
// uint32 counters starting at j. Every id's value is distinct, its first
// four bytes name the id, and all values share one small buffer.
func (in *inputs) value(j uint32, payload int) []byte {
	return in.values[4*int(j) : 4*int(j)+payload]
}

// valueID inverts value: the label id a histogram key was generated for,
// or false if the key is no value of this run.
func (in *inputs) valueID(key string, payload int) (uint32, bool) {
	if len(key) != payload {
		return 0, false
	}
	j := binary.BigEndian.Uint32([]byte(key[:4]))
	if int(j) >= len(in.labels) || string(in.value(j, payload)) != key {
		return 0, false
	}
	return j, true
}

// poolBatches is how many batches each client needs for warmup plus the
// measured window: exact for open loop, capacity-bounded for closed loop.
func (w workload) poolBatches(total time.Duration) int {
	rate := w.rate
	if rate == 0 {
		rate = w.maxRate
	}
	n := int(math.Ceil(rate*total.Seconds()/float64(w.clients*w.batch))) + 1
	return max(n, 1)
}

// generate builds the run's inputs. The same seed gives the same labels,
// payloads and batch order.
func generate(w workload, seed uint64, total time.Duration) *inputs {
	n := w.labels.n()
	in := &inputs{labels: make([]string, n), values: make([]byte, 4*n+w.payload)}
	for j := range in.labels {
		if j < w.labels.hot {
			in.labels[j] = "crowd-" + strconv.Itoa(j)
		} else {
			in.labels[j] = "tail-" + strconv.Itoa(j)
		}
	}
	for j := 0; 4*j < len(in.values); j++ {
		binary.BigEndian.PutUint32(in.values[4*j:], uint32(j))
	}
	per := w.poolBatches(total)
	in.pools = make([][]batch, w.clients)
	for c := range in.pools {
		draw := w.labels.sampler(rand.New(rand.NewPCG(seed, uint64(c)+1)))
		pool := make([]batch, per)
		for b := range pool {
			bt := batch{ids: make([]uint32, w.batch), labels: make([]string, w.batch), data: make([][]byte, w.batch)}
			for i := range bt.ids {
				j := draw()
				bt.ids[i], bt.labels[i], bt.data[i] = j, in.labels[j], in.value(j, w.payload)
			}
			pool[b] = bt
		}
		in.pools[c] = pool
	}
	return in
}
