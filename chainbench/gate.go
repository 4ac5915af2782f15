package main

import (
	"errors"
	"fmt"

	"prochlo/internal/transport"
)

// gateInput is everything the correctness gate inspects after the drain
// barrier.
type gateInput struct {
	tiers         [][]transport.ServiceStats // post-drain stats, [tier][replica]
	records       int                        // analyzer database rows, all partitions
	undecryptable int                        // analyzer-side undecryptable reports
	histogram     map[string]int             // merged analyzer histogram
	submitted     []int                      // reports submitted per label id
	in            *inputs
	payload       int
}

// checkGate verifies that the chain delivered exactly what thresholding
// allows: every replica's ledger balances, nothing was undecryptable, the
// histogram, the analyzer database and the thresholding tier's forwarded
// count agree, no value is over-counted, and no value submitted fewer than
// T times survived. It returns every violation found.
func checkGate(g gateInput) error {
	var errs []error
	for t, tier := range g.tiers {
		for i, s := range tier {
			if s.Unaccounted != 0 {
				errs = append(errs, fmt.Errorf("hop %d replica %d: %d reports unaccounted", t+1, i, s.Unaccounted))
			}
			if s.Cumulative.Undecryptable != 0 {
				errs = append(errs, fmt.Errorf("hop %d replica %d: %d undecryptable reports", t+1, i, s.Cumulative.Undecryptable))
			}
		}
	}
	if g.undecryptable != 0 {
		errs = append(errs, fmt.Errorf("analyzer: %d undecryptable reports", g.undecryptable))
	}
	forwarded := 0
	if len(g.tiers) > 0 {
		for _, s := range g.tiers[len(g.tiers)-1] {
			forwarded += s.Cumulative.Forwarded
		}
	}
	sum := 0
	for key, n := range g.histogram {
		sum += n
		j, ok := g.in.valueID(key, g.payload)
		switch {
		case !ok:
			errs = append(errs, fmt.Errorf("histogram holds %d of a value never generated", n))
		case n > g.submitted[j]:
			errs = append(errs, fmt.Errorf("value of %s counted %d times, submitted %d", g.in.labels[j], n, g.submitted[j]))
		case g.submitted[j] < thresholdT:
			errs = append(errs, fmt.Errorf("value of %s submitted %d < T=%d times survived thresholding", g.in.labels[j], g.submitted[j], thresholdT))
		}
	}
	if sum != g.records || g.records != forwarded {
		errs = append(errs, fmt.Errorf("histogram sum %d, analyzer records %d, shuffler2 forwarded %d: want all equal", sum, g.records, forwarded))
	}
	return errors.Join(errs...)
}
