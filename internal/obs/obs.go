// Package obs is a lightweight, allocation-conscious metrics layer for
// the simulator's hot paths: counters, gauges and histograms with atomic
// updates, plus a Span phase timer. It exists so the Monte-Carlo engine
// can report what the event-driven ABM greedy and the worker fan-out are
// actually doing at scale.
//
// Every instrument is nil-safe: methods on a nil *Registry, *Counter,
// *Gauge, *Histogram or zero Span are no-ops, so instrumented code pays
// only a nil check when metrics are disabled. Lookup (Registry.Counter
// and friends) takes a mutex and may allocate; callers are expected to
// resolve instruments once — at construction or Init time — and hold the
// pointer across the hot loop.
package obs

import (
	"math"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. No-op on a nil counter.
func (c *Counter) Add(n int64) {
	if c == nil {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. No-op on a nil counter.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count; 0 on a nil counter.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an atomic float64 value that can move both ways.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v. No-op on a nil gauge.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Add offsets the gauge by d via a CAS loop. No-op on a nil gauge.
func (g *Gauge) Add(d float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current gauge value; 0 on a nil gauge.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// histBuckets is the number of power-of-two histogram buckets: bucket i
// counts observations v with bitlen(v) == i, i.e. v in [2^(i-1), 2^i).
// 64 buckets cover the full non-negative int64 range.
const histBuckets = 65

// Histogram aggregates non-negative int64 observations (values or
// nanosecond durations) into power-of-two buckets with exact count, sum,
// min and max. All updates are lock-free and safe for concurrent use.
type Histogram struct {
	count atomic.Int64
	sum   atomic.Int64
	// minP1 stores min+1 so the zero value means "no observations yet".
	minP1   atomic.Int64
	max     atomic.Int64
	buckets [histBuckets]atomic.Int64
}

// Observe records one observation. Negative values are clamped to 0.
// No-op on a nil histogram.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	h.buckets[bits.Len64(uint64(v))].Add(1)
	for {
		old := h.minP1.Load()
		if old != 0 && old-1 <= v {
			break
		}
		if h.minP1.CompareAndSwap(old, v+1) {
			break
		}
	}
	for {
		old := h.max.Load()
		if old >= v {
			break
		}
		if h.max.CompareAndSwap(old, v) {
			break
		}
	}
}

// Min returns the smallest observation; 0 with no observations.
func (h *Histogram) Min() int64 {
	if h == nil {
		return 0
	}
	p1 := h.minP1.Load()
	if p1 == 0 {
		return 0
	}
	return p1 - 1
}

// Max returns the largest observation; 0 with no observations.
func (h *Histogram) Max() int64 {
	if h == nil {
		return 0
	}
	return h.max.Load()
}

// Count returns the number of observations; 0 on a nil histogram.
func (h *Histogram) Count() int64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of observations; 0 on a nil histogram.
func (h *Histogram) Sum() int64 {
	if h == nil {
		return 0
	}
	return h.sum.Load()
}

// Mean returns the mean observation; 0 with no observations.
func (h *Histogram) Mean() float64 {
	n := h.Count()
	if n == 0 {
		return 0
	}
	return float64(h.Sum()) / float64(n)
}

// Quantile estimates the q-quantile (q in [0, 1]) from the power-of-two
// buckets: the answer is exact to within a factor of two. Returns 0 with
// no observations.
func (h *Histogram) Quantile(q float64) int64 {
	if h == nil {
		return 0
	}
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	rank := int64(q * float64(n-1))
	var seen int64
	for i := 0; i < histBuckets; i++ {
		seen += h.buckets[i].Load()
		if seen > rank {
			if i == 0 {
				return 0
			}
			// Bucket i holds values in [2^(i-1), 2^i); report the
			// midpoint, clamped to the observed range so estimates never
			// fall outside [Min, Max].
			lo := int64(1) << (i - 1)
			return min(max(lo+lo/2, h.Min()), h.max.Load())
		}
	}
	return h.max.Load()
}

// Registry is a named collection of instruments. The zero value is not
// usable; call New. A nil *Registry is the disabled state: every lookup
// returns a nil instrument and every recording is a no-op.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use. Returns
// nil (the no-op instrument) on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use. Returns nil
// on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use.
// Returns nil on a nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// sortedKeys returns map keys in stable order.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
