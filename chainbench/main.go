// Command chainbench is the repository's benchmark: it runs one named
// workload against an in-process loopback fleet of the blinded ESA chain
// (shuffler 1 -> shuffler 2 -> analyzer), built with the transport
// constructors cmd/prochlod uses and loaded through the public client,
// checks that the drained histogram is exactly what thresholding allows,
// and prints every metric by name with its unit. The last line of its
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// workload runs twice with the same seed — untraced, then with the
// benchmark's calls into each layer timed and the fleet's metrics
// registry attached — and the metrics are the per-layer ones. See
// README.md for the workloads, metrics and how to run them.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"prochlo"
	"prochlo/internal/load"
	"prochlo/internal/metrics"
	"prochlo/internal/transport"
)

func main() {
	os.Exit(benchMain(os.Args[1:], os.Stdout, os.Stderr))
}

// metric is one named result.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// benchMain runs the benchmark and returns the exit code: 0 on success, 1
// when a run fails the correctness gate (the result line is still
// printed), 2 when the benchmark cannot run at all (nothing is printed).
func benchMain(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("chainbench", flag.ContinueOnError)
	fl.SetOutput(stderr)
	name := fl.String("workload", "", "workload to run (chain-paced, fleet-durable)")
	seed := fl.Uint64("seed", 1, "input seed: the same seed gives the same labels, payloads and batch order")
	seconds := fl.Float64("seconds", 30, "length of the measured window")
	trace := fl.Int("trace", 0, "0: end-to-end metrics from an untraced run; 1: per-layer metrics from an untraced plus a traced run")
	out := fl.String("out", filepath.Join(".bench_build", "chainbench-run"), "directory for WAL directories and span dumps")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	w, err := findWorkload(*name)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		if err == nil {
			err = errors.New("--seconds must be positive and --trace 0 or 1")
		}
		fmt.Fprintln(stderr, "chainbench:", err)
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(stderr, "chainbench:", err)
		return 2
	}
	cfg := runConfig{w: w, seed: *seed, measure: time.Duration(*seconds * float64(time.Second)), out: *out}

	env := environment(".")
	env.Workload, env.Seed, env.Seconds, env.Trace = w.name, *seed, *seconds, *trace
	envJSON, _ := json.Marshal(env)
	fmt.Fprintf(stdout, "env %s\n", envJSON)

	plain, err := run(cfg, false)
	if err != nil {
		fmt.Fprintln(stderr, "chainbench:", err)
		return 2
	}
	runs := []*runResult{plain}
	reported := plain.endToEnd()
	if *trace == 1 {
		traced, err := run(cfg, true)
		if err != nil {
			fmt.Fprintln(stderr, "chainbench:", err)
			return 2
		}
		runs = append(runs, traced)
		reported = traced.layers
		reported["trace.overhead_pct"] = metric{100 * (plain.throughput() - traced.throughput()) / plain.throughput(), "%"}
		fmt.Fprintf(stdout, "spans %s\n", traced.spansPath)
	}

	res := result{Correct: true, Attempted: plain.attempted, Failed: plain.failed, Metrics: reported}
	for i, r := range runs {
		if r.gateErr != nil {
			fmt.Fprintf(stderr, "chainbench: run %d failed the correctness gate:\n%v\n", i, r.gateErr)
			res.Correct, res.Failed = false, res.Attempted
		}
	}
	fmt.Fprintf(stdout, "metric error_rate %.6f ratio\n", float64(res.Failed)/float64(max(res.Attempted, 1)))
	names := make([]string, 0, len(reported))
	for n := range reported {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "metric %s %g %s\n", n, reported[n].Value, reported[n].Unit)
	}
	line, _ := json.Marshal(res)
	fmt.Fprintf(stdout, "%s\n", line)
	if !res.Correct {
		return 1
	}
	return 0
}

// setupRepeats is how many times an untraced run sets the fleet up;
// setup_s is the median, steadier than any one set-up of a few ms.
const setupRepeats = 41

// runConfig is one invocation's settings.
type runConfig struct {
	w       workload
	seed    uint64
	measure time.Duration
	out     string
}

// warmup precedes the measured window so connections, caches and the
// first epochs settle and the heap grows to its working size: a tenth of
// the window, between 50 ms and 3 s.
func (c runConfig) warmup() time.Duration {
	return min(max(c.measure/10, 50*time.Millisecond), 3*time.Second)
}

// runResult is one run's measurements.
type runResult struct {
	setupS    []float64
	attempted int
	failed    int
	accepted  int
	elapsed   time.Duration // first measured submit until the histogram is read
	cpu       time.Duration // process user+sys CPU over the same window
	latencies []float64
	gate      gateInput
	gateErr   error

	layers    map[string]metric // traced runs only
	spansPath string
}

func (r *runResult) throughput() float64 {
	return float64(r.accepted) / r.elapsed.Seconds()
}

func (r *runResult) endToEnd() map[string]metric {
	return map[string]metric{
		"throughput_rps":    {r.throughput(), "reports/s"},
		"cpu_us_per_report": {float64(r.cpu.Microseconds()) / float64(max(r.accepted, 1)), "us"},
		"submit_p50_ms":     {quantile(r.latencies, 0.50), "ms"},
		"submit_p99_ms":     {quantile(r.latencies, 0.99), "ms"},
		"peak_rss_mb":       {peakRSSMiB(), "MiB"},
		"setup_s":           {median(r.setupS), "s"},
	}
}

// run sets the fleet up (setupRepeats times when untraced, keeping the
// last), drives the load, drains, and checks the output. Errors are
// returned only when the benchmark itself cannot run; a chain that
// misbehaves fails the gate instead.
func run(cfg runConfig, traced bool) (*runResult, error) {
	w := cfg.w
	warmup := cfg.warmup()
	in := generate(w, cfg.seed, warmup+cfg.measure)
	r := &runResult{}

	var reg *metrics.Registry
	setups := setupRepeats
	if traced {
		reg, setups = metrics.NewRegistry(), 1
	}
	var (
		f  *fleet
		rp *prochlo.RemotePipeline
		tc *tracedClient
	)
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		var err error
		if f, err = startFleet(w, cfg.seed, filepath.Join(cfg.out, "wal"), reg); err != nil {
			return nil, err
		}
		if rp, err = f.dial(); err != nil {
			f.close()
			return nil, err
		}
		r.setupS = append(r.setupS, time.Since(t0).Seconds())
		if i < setups-1 {
			rp.Close()
			f.close()
		}
	}
	defer f.close()
	defer rp.Close()
	submit := func(_ int, b *batch, _ int64) error { return rp.SubmitBatch(b.labels, b.data) }
	if traced {
		var err error
		if tc, err = dialTraced(f, w.clients, reg); err != nil {
			return nil, err
		}
		defer tc.close()
		submit = tc.submit
	}
	runtime.GC()

	var (
		mem0, mem1 runtime.MemStats
		sampler    *inflightSampler
	)
	start := time.Now()
	if tc != nil {
		tc.origin = start
	}
	loadDone := make(chan []clientLoad, 1)
	go func() { loadDone <- runLoad(w, in, start, warmup, cfg.measure, submit) }()
	time.Sleep(time.Until(start.Add(warmup)))
	cpu0 := cpuTime()
	if traced {
		runtime.ReadMemStats(&mem0)
		sampler = sampleInflight(reg)
	}
	loads := <-loadDone

	// Drain barrier and histogram read: the end of the measured window.
	var (
		tiers     [][]transport.ServiceStats
		histogram map[string]int
		drainErr  error
		drain     time.Duration
		histDur   time.Duration
	)
	if traced {
		t0 := time.Now()
		tiers, drainErr = rp.DrainAll(false)
		drain = time.Since(t0)
		tc.record(w.clients, 0, -1, "prochlo.RemotePipeline.DrainAll", t0, t0.Add(drain))
		if drainErr == nil {
			histogram, histDur, drainErr = tc.histogram()
		}
	} else {
		var res *prochlo.Result
		if res, drainErr = rp.Flush(); drainErr == nil {
			histogram = res.Histogram
		}
	}
	end := time.Now()
	r.cpu = cpuTime() - cpu0
	if traced {
		runtime.ReadMemStats(&mem1)
	}
	if !traced && drainErr == nil {
		tiers, drainErr = rp.FleetStats()
	}

	first := end
	submitted := make([]int, len(in.labels))
	for _, cl := range loads {
		r.attempted += cl.attempted
		r.failed += cl.failed
		r.accepted += cl.accepted
		r.latencies = append(r.latencies, cl.latencies...)
		if cl.attempted > 0 && cl.firstMeasured.Before(first) {
			first = cl.firstMeasured
		}
		for j, n := range cl.submitted {
			submitted[j] += n
		}
	}
	r.elapsed = end.Sub(first)
	if r.attempted == 0 {
		return nil, errors.New("no submit fell in the measured window")
	}

	records, undec := f.analyzerStats()
	if drainErr != nil {
		r.gateErr = fmt.Errorf("drain: %w", drainErr)
	} else {
		r.gate = gateInput{tiers: tiers, records: records, undecryptable: undec,
			histogram: histogram, submitted: submitted, in: in, payload: w.payload}
		r.gateErr = checkGate(r.gate)
	}
	if !traced {
		return r, nil
	}

	var late []float64
	for _, cl := range loads {
		late = append(late, cl.late...)
	}
	r.layers = layerMetrics(layerInput{
		tc: tc, warmEnd: start.Add(warmup), tiers: tiers, samples: scrape(reg),
		inflight: sampler.finish(), records: records, histDur: histDur, drain: drain,
		allocBytes: mem1.TotalAlloc - mem0.TotalAlloc, gcCycles: mem1.NumGC - mem0.NumGC,
		accepted: r.accepted, late: late,
	})
	r.spansPath = filepath.Join(cfg.out, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, cfg.seed))
	if err := tc.writeSpans(r.spansPath); err != nil {
		return nil, err
	}
	return r, nil
}

// layerInput is what the per-layer metrics are computed from.
type layerInput struct {
	tc             *tracedClient
	warmEnd        time.Time
	tiers          [][]transport.ServiceStats
	samples        []promSample
	inflight       map[string]float64
	records        int
	histDur, drain time.Duration
	allocBytes     uint64
	gcCycles       uint32
	accepted       int
	late           []float64
}

// layerMetrics computes the per-layer metrics of a traced run. Client-side
// timings cover the measured window; fleet-side counters cover the whole
// run and are divided by the reports they saw.
func layerMetrics(in layerInput) map[string]metric {
	var (
		reports, envBytes, frameBytes int
		encode, submit                time.Duration
		submitMS                      []float64
	)
	for _, client := range in.tc.trace {
		for _, t := range client {
			if t.start.Before(in.warmEnd) {
				continue
			}
			reports += t.reports
			envBytes += t.envBytes
			frameBytes += t.frameBytes
			encode += t.encode
			submit += t.submit
			submitMS = append(submitMS, ms(t.submit))
		}
	}
	tier := func(t int) (agg transport.ServiceStats) {
		for _, s := range in.tiers[t] {
			agg.Accepted += s.Accepted
			agg.Rejected += s.Rejected
			agg.EpochsFlushed += s.EpochsFlushed
			agg.Cumulative.Received += s.Cumulative.Received
			agg.Cumulative.Forwarded += s.Cumulative.Forwarded
			agg.Cumulative.Undecryptable += s.Cumulative.Undecryptable
		}
		return agg
	}
	s1, s2 := tier(0), tier(1)
	entry := float64(max(s1.Accepted, 1))
	perReport := func(total float64, n int) float64 { return total / float64(max(n, 1)) }
	us := func(seconds float64, n int) float64 { return perReport(seconds*1e6, n) }
	return map[string]metric{
		"encoder.us_per_report":             {perReport(float64(encode.Microseconds()), reports), "us"},
		"encoder.bytes_per_report":          {perReport(float64(envBytes), reports), "bytes"},
		"core.frame_bytes_per_report":       {perReport(float64(frameBytes), reports), "bytes"},
		"transport.submit_us_per_report":    {perReport(float64(submit.Microseconds()), reports), "us"},
		"transport.submit_p99_ms":           {quantile(submitMS, 0.99), "ms"},
		"transport.rejected_per_1k":         {1000 * float64(s1.Rejected) / entry, "count/1k"},
		"transport.failovers":               {float64(in.tc.bal.Stats().Failovers), "count"},
		"transport.wal.fsync_us_per_report": {1e6 * sum(in.samples, "prochlo_wal_fsync_seconds_sum", "") / entry, "us"},
		"transport.wal.fsyncs_per_1k":       {1000 * sum(in.samples, "prochlo_wal_fsync_seconds_count", "") / entry, "count/1k"},
		"transport.wal.records_per_report":  {sum(in.samples, "prochlo_wal_append_records_total", "") / entry, "count"},
		"shuffler.s1.process_us_per_report": {us(sum(in.samples, "prochlo_stage_process_seconds_sum", "shuffler1"), s1.Cumulative.Received), "us"},
		"shuffler.s2.process_us_per_report": {us(sum(in.samples, "prochlo_stage_process_seconds_sum", "shuffler2"), s2.Cumulative.Received), "us"},
		"shuffler.s1.push_us_per_report":    {us(sum(in.samples, "prochlo_stage_push_seconds_sum", "shuffler1"), s1.Cumulative.Received), "us"},
		"shuffler.s2.push_us_per_report":    {us(sum(in.samples, "prochlo_stage_push_seconds_sum", "shuffler2"), s2.Cumulative.Received), "us"},
		"shuffler.s1.epochs":                {float64(s1.EpochsFlushed), "count"},
		"shuffler.s2.epochs":                {float64(s2.EpochsFlushed), "count"},
		"shuffler.s2.epoch_size_mean":       {perReport(float64(s2.Cumulative.Received), s2.EpochsFlushed), "count"},
		"shuffler.s1.inflight_mean":         {in.inflight["shuffler1"], "count"},
		"shuffler.s2.inflight_mean":         {in.inflight["shuffler2"], "count"},
		"shuffler.s2.forwarded_ratio":       {perReport(float64(s2.Cumulative.Forwarded), s2.Cumulative.Received), "ratio"},
		"shuffler.s2.undecryptable":         {float64(s2.Cumulative.Undecryptable), "count"},
		"analyzer.records":                  {float64(in.records), "count"},
		"analyzer.histogram_ms":             {ms(in.histDur), "ms"},
		"prochlo.drain_s":                   {in.drain.Seconds(), "s"},
		"runtime.alloc_bytes_per_report":    {perReport(float64(in.allocBytes), in.accepted), "bytes"},
		"runtime.gc_cycles":                 {float64(in.gcCycles), "count"},
		"load.late_p99_ms":                  {quantile(in.late, 0.99), "ms"},
	}
}

// quantile is the nearest-rank quantile, 0 for an empty sample.
func quantile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	return load.Quantile(samples, q)
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func peakRSSMiB() float64 {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
