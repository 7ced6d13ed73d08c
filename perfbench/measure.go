package main

import (
	"math"
	"sort"
	"sync/atomic"
)

// minBeyond is the percentile rule's sample floor: a tail percentile is
// reported only when at least this many samples lie beyond it.
const minBeyond = 10

// percentileLadder lists the percentiles the rule may report, highest
// first.
var percentileLadder = []float64{99.9, 99, 90, 75, 50}

// tailPercentile applies the percentile rule to n samples: it returns the
// highest percentile of the ladder with at least minBeyond samples beyond
// it, and how many samples lie beyond it. ok is false when not even the
// median qualifies.
func tailPercentile(n int) (p float64, beyond int, ok bool) {
	for _, p := range percentileLadder {
		if b := n - rankOf(n, p); b >= minBeyond {
			return p, b, true
		}
	}
	return 0, 0, false
}

// rankOf is the 1-based nearest rank of percentile p among n samples.
func rankOf(n int, p float64) int {
	// The epsilon keeps float error (99.9% of 10000 = 9990.000000000002)
	// from bumping an exact rank up by one.
	r := int(math.Ceil(p/100*float64(n) - 1e-9))
	return min(max(r, 1), n)
}

// percentile returns the nearest-rank p-th percentile of xs (xs is not
// modified); 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	return s[rankOf(len(s), p)-1]
}

// median returns the middle value of xs, averaging the two middle values
// for an even count; 0 for no samples.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tally counts operations for the error rate. Every operation is
// attempted; one that fails or is refused is also missed, so it counts
// against every latency or throughput figure it would have contributed
// to. Safe for concurrent use.
type tally struct {
	attempted atomic.Int64
	failed    atomic.Int64
}

// op records one operation that succeeded when ok is true.
func (t *tally) op(ok bool) {
	t.attempted.Add(1)
	if !ok {
		t.failed.Add(1)
	}
}

// ops records n attempted operations of which missed did not complete.
func (t *tally) ops(n, missed int64) {
	t.attempted.Add(n)
	t.failed.Add(missed)
}

// errorRate is failed ÷ attempted; 0 before any operation.
func (t *tally) errorRate() float64 {
	a := t.attempted.Load()
	if a == 0 {
		return 0
	}
	return float64(t.failed.Load()) / float64(a)
}
