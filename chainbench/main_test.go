package main

import (
	"bytes"
	"encoding/json"
	"maps"
	"os"
	"strings"
	"testing"
	"time"

	"prochlo/internal/transport"
)

// benchmarkSpec is the part of ../BENCHMARK.json the tests check against.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// runTiny runs benchMain at a tiny size and returns its parsed result line.
func runTiny(t *testing.T, workload string, trace string) result {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := benchMain([]string{"--workload", workload, "--seed", "3", "--seconds", "0.3",
		"--trace", trace, "--out", t.TempDir()}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if !strings.HasPrefix(lines[0], "env {") {
		t.Errorf("first line is not the environment fingerprint: %q", lines[0])
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v", err)
	}
	return res
}

// TestWorkloadsPrintEveryMetric runs every workload named in
// BENCHMARK.json at a tiny size, untraced and traced, and checks that each
// passes the gate and prints exactly the metrics the file names, with
// their units.
func TestWorkloadsPrintEveryMetric(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, wl := range spec.Workloads {
		for trace, want := range map[string][]specMetric{"0": spec.EndToEnd, "1": spec.PerLayer} {
			t.Run(wl.Name+"/trace"+trace, func(t *testing.T) {
				res := runTiny(t, wl.Name, trace)
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("printed %d metrics, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					if !ok {
						t.Errorf("metric %s not printed", m.Name)
					} else if got.Unit != m.Unit {
						t.Errorf("metric %s unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
				}
			})
		}
	}
}

// TestGateTripsOnTamperedHistogram takes the gate input of a real tiny run
// and checks that every kind of tampering with its histogram is caught.
func TestGateTripsOnTamperedHistogram(t *testing.T) {
	w, err := findWorkload("chain-paced")
	if err != nil {
		t.Fatal(err)
	}
	r, err := run(runConfig{w: w, seed: 5, measure: 300 * time.Millisecond, out: t.TempDir()}, false)
	if err != nil {
		t.Fatal(err)
	}
	if r.gateErr != nil {
		t.Fatalf("untampered run fails the gate: %v", r.gateErr)
	}
	if len(r.gate.histogram) == 0 {
		t.Fatal("untampered run delivered an empty histogram; nothing to tamper with")
	}
	var key string
	for k := range r.gate.histogram {
		key = k
		break
	}
	j, _ := r.gate.in.valueID(key, w.payload)
	// A label submitted T-1 times: its value may never survive.
	rare := uint32(len(r.gate.in.labels))
	r.gate.in.labels = append(r.gate.in.labels, "rare")
	r.gate.submitted = append(r.gate.submitted, thresholdT-1)

	// consistent moves the analyzer record count and the thresholding
	// tier's forwarded count along with a tampered histogram, so only the
	// check under test can trip.
	consistent := func(g *gateInput, delta int) {
		g.records += delta
		g.tiers = append([][]transport.ServiceStats(nil), g.tiers...)
		last := len(g.tiers) - 1
		g.tiers[last] = append([]transport.ServiceStats(nil), g.tiers[last]...)
		g.tiers[last][0].Cumulative.Forwarded += delta
	}
	for name, tamper := range map[string]func(g *gateInput){
		"one extra count":   func(g *gateInput) { g.histogram[key]++ },
		"one missing count": func(g *gateInput) { g.histogram[key]-- },
		"records beyond forwarded": func(g *gateInput) {
			g.histogram[key]++
			g.records++
		},
		"over-counted value": func(g *gateInput) {
			consistent(g, r.gate.submitted[j]+1-g.histogram[key])
			g.histogram[key] = r.gate.submitted[j] + 1
		},
		"value below threshold": func(g *gateInput) {
			consistent(g, 1)
			g.histogram[string(g.in.value(rare, w.payload))] = 1
		},
		"value never generated": func(g *gateInput) {
			consistent(g, 1)
			g.histogram[strings.Repeat("x", w.payload)] = 1
		},
		"unaccounted report": func(g *gateInput) {
			consistent(g, 0)
			g.tiers[len(g.tiers)-1][0].Unaccounted = 1
		},
	} {
		g := r.gate
		g.histogram = maps.Clone(r.gate.histogram)
		tamper(&g)
		if err := checkGate(g); err == nil {
			t.Errorf("%s: gate passed a tampered run", name)
		}
	}
	if err := checkGate(r.gate); err != nil {
		t.Errorf("tampering leaked into the original gate input: %v", err)
	}
}

// TestUnknownWorkloadPrintsNothing checks that a benchmark that cannot run
// exits non-zero without a result line.
func TestUnknownWorkloadPrintsNothing(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := benchMain([]string{"--workload", "no-such-workload"}, &stdout, &stderr); code == 0 {
		t.Error("unknown workload exited 0")
	}
	if stdout.Len() != 0 {
		t.Errorf("unknown workload printed %q", stdout.String())
	}
}
