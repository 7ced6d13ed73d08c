// Fixture for the detflow analyzer: clock/env/global-rand/map-order
// values tracked through the taint engine to digest/summary sinks —
// directly, through locals, through in-package helpers (Returns and
// ParamFlows summaries), and through method calls on tainted receivers.
package sim

import (
	"math/rand"
	"os"
	"sort"
	"time"
)

// RecordDigest mirrors the production sink: its Collect input is pinned
// by the bit-identity invariants.
type RecordDigest struct{}

func (d *RecordDigest) Collect(vals ...float64) {}

// Summary mirrors the production mergeable-summary sink.
type Summary struct{}

func (s *Summary) Collect(v float64) {}

func directClock(d *RecordDigest) {
	d.Collect(float64(time.Now().UnixNano())) // want `clock-tainted value reaches deterministic sink \(RecordDigest\)\.Collect`
}

func throughLocal(d *RecordDigest, start time.Time) {
	elapsed := time.Since(start)
	d.Collect(elapsed.Seconds()) // want `clock-tainted value reaches deterministic sink \(RecordDigest\)\.Collect`
}

// jitter is the in-package hop the Returns summary propagates through.
func jitter() float64 {
	return float64(time.Now().UnixNano())
}

func throughHelper(s *Summary) {
	v := jitter()
	s.Collect(v) // want `clock-tainted value reaches deterministic sink \(Summary\)\.Collect \(flow: v ← jitter`
}

// scale is the hop the ParamFlows summary threads an argument through.
func scale(x float64) float64 { return x * 2 }

func throughParam(s *Summary) {
	s.Collect(scale(rand.Float64())) // want `global-rand-tainted value reaches deterministic sink \(Summary\)\.Collect` `math/rand\.Float64 bypasses the internal/rng seed tree`
}

func envRead(s *Summary) {
	mode := os.Getenv("ACCU_MODE") // want `os\.Getenv makes .* depend on the process environment`
	s.Collect(float64(len(mode)))  // want `env-tainted value reaches deterministic sink \(Summary\)\.Collect`
}

func mapOrder(s *Summary, weights map[int]float64) {
	for _, w := range weights {
		s.Collect(w) // want `map-order-tainted value reaches deterministic sink \(Summary\)\.Collect`
	}
}

// sortedFirst is the audited pattern: iteration order is discharged by
// sorting before the sink sees anything.
func sortedFirst(s *Summary, weights map[int]float64) {
	keys := make([]int, 0, len(weights))
	for k := range weights {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	for _, k := range keys {
		//accu:allow detflow -- keys are sorted above; order is deterministic
		s.Collect(weights[k])
	}
}

// seeded values never touch a source: clean.
func seeded(d *RecordDigest, seedDerived float64) {
	d.Collect(seedDerived)
}

// spans may read the clock in the timing packages as long as the value
// stays out of the sinks: clean.
func spanOnly(d *RecordDigest, seedDerived float64) time.Duration {
	t0 := time.Now()
	d.Collect(seedDerived)
	return time.Since(t0)
}
