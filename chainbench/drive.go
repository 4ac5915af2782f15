package main

import (
	"sync"
	"time"
)

// submitFunc ships one pre-generated batch for client c. id identifies the
// batch across every span of its submit.
type submitFunc func(c int, b *batch, id int64) error

// clientLoad is one load client's record of a run.
type clientLoad struct {
	latencies     []float64 // ms per measured submit (open loop: from the scheduled send time)
	late          []float64 // ms each measured open-loop submit went out behind schedule
	attempted     int       // measured submits
	failed        int       // measured submits that returned an error
	accepted      int       // reports in measured submits that succeeded
	firstMeasured time.Time // start of this client's first measured submit
	submitted     []int     // reports submitted per label id, warmup included
}

// runLoad drives w's clients from start: warmup, then the measured window,
// then returns once every client's last submit has returned. Closed-loop
// clients submit back to back; open-loop clients follow a fixed schedule
// of clients*batch/rate seconds per batch, staggered across clients, and
// time each submit from when it was due.
func runLoad(w workload, in *inputs, start time.Time, warmup, measure time.Duration, submit submitFunc) []clientLoad {
	warmEnd, end := start.Add(warmup), start.Add(warmup+measure)
	out := make([]clientLoad, w.clients)
	var wg sync.WaitGroup
	for c := range out {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			cl := &out[c]
			cl.submitted = make([]int, len(in.labels))
			pool := in.pools[c]
			var period time.Duration
			if w.rate > 0 {
				period = time.Duration(float64(w.clients*w.batch) / w.rate * float64(time.Second))
			}
			for k := 0; ; k++ {
				var due time.Time
				if period > 0 {
					due = start.Add(time.Duration(k)*period + time.Duration(c)*period/time.Duration(w.clients))
					if !due.Before(end) {
						return
					}
					time.Sleep(time.Until(due))
				}
				t0 := time.Now()
				if period == 0 {
					if !t0.Before(end) {
						return
					}
					due = t0
				}
				b := &pool[k%len(pool)]
				err := submit(c, b, int64(c)<<40|int64(k))
				done := time.Now()
				for _, j := range b.ids {
					cl.submitted[j]++
				}
				if due.Before(warmEnd) {
					continue
				}
				if cl.attempted == 0 {
					cl.firstMeasured = t0
				}
				cl.attempted++
				if err != nil {
					cl.failed++
					continue
				}
				cl.accepted += len(b.ids)
				cl.latencies = append(cl.latencies, ms(done.Sub(due)))
				if period > 0 {
					cl.late = append(cl.late, ms(t0.Sub(due)))
				}
			}
		}(c)
	}
	wg.Wait()
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
