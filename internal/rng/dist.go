package rng

import (
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
)

// ErrEmptyWeights is returned when a distribution is constructed from an
// empty or all-zero weight vector.
var ErrEmptyWeights = errors.New("rng: weights are empty or sum to zero")

// Alias is a Walker alias table for O(1) sampling from a fixed discrete
// distribution. Construction is O(n).
type Alias struct {
	prob  []float64
	alias []int
}

// NewAlias builds an alias table from non-negative weights. Weights need
// not be normalized.
func NewAlias(weights []float64) (*Alias, error) {
	n := len(weights)
	if n == 0 {
		return nil, ErrEmptyWeights
	}
	var sum float64
	for i, w := range weights {
		if w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("rng: weight %d is invalid (%v)", i, w)
		}
		sum += w
	}
	if sum == 0 {
		return nil, ErrEmptyWeights
	}

	a := &Alias{
		prob:  make([]float64, n),
		alias: make([]int, n),
	}
	// Scaled probabilities; partition into small (<1) and large (>=1).
	scaled := make([]float64, n)
	small := make([]int, 0, n)
	large := make([]int, 0, n)
	for i, w := range weights {
		scaled[i] = w * float64(n) / sum
		if scaled[i] < 1 {
			small = append(small, i)
		} else {
			large = append(large, i)
		}
	}
	for len(small) > 0 && len(large) > 0 {
		s := small[len(small)-1]
		small = small[:len(small)-1]
		l := large[len(large)-1]
		large = large[:len(large)-1]

		a.prob[s] = scaled[s]
		a.alias[s] = l
		scaled[l] -= 1 - scaled[s]
		if scaled[l] < 1 {
			small = append(small, l)
		} else {
			large = append(large, l)
		}
	}
	// Numerical leftovers are all probability 1.
	for _, i := range large {
		a.prob[i] = 1
	}
	for _, i := range small {
		a.prob[i] = 1
	}
	return a, nil
}

// Len reports the number of outcomes.
func (a *Alias) Len() int { return len(a.prob) }

// Sample draws one outcome index.
func (a *Alias) Sample(r *rand.Rand) int {
	i := r.IntN(len(a.prob))
	if r.Float64() < a.prob[i] {
		return i
	}
	return a.alias[i]
}

// PowerLawDegrees samples n integer degrees from a discrete power law
// P(d) ∝ d^(-gamma) on [minDeg, maxDeg], using inverse transform sampling
// on the continuous approximation, rounded down. The returned sequence sum
// is forced even (one sample is incremented if needed) so it can feed a
// configuration model.
func PowerLawDegrees(r *rand.Rand, n, minDeg, maxDeg int, gamma float64) ([]int, error) {
	switch {
	case n <= 0:
		return nil, fmt.Errorf("rng: n must be positive, got %d", n)
	case minDeg < 1:
		return nil, fmt.Errorf("rng: minDeg must be >= 1, got %d", minDeg)
	case maxDeg < minDeg:
		return nil, fmt.Errorf("rng: maxDeg %d < minDeg %d", maxDeg, minDeg)
	case gamma <= 1:
		return nil, fmt.Errorf("rng: gamma must be > 1, got %v", gamma)
	}
	degs := make([]int, n)
	lo := math.Pow(float64(minDeg), 1-gamma)
	hi := math.Pow(float64(maxDeg)+1, 1-gamma)
	sum := 0
	for i := range degs {
		u := r.Float64()
		x := math.Pow(lo+float64(u*(hi-lo)), 1/(1-gamma))
		d := int(x)
		if d < minDeg {
			d = minDeg
		}
		if d > maxDeg {
			d = maxDeg
		}
		degs[i] = d
		sum += d
	}
	if sum%2 != 0 {
		degs[0]++
	}
	return degs, nil
}

// Shuffle permutes the slice in place.
func Shuffle[T any](r *rand.Rand, xs []T) {
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
}

// SampleWithoutReplacement draws k distinct values from [0, n) uniformly.
// It uses Floyd's algorithm: O(k) expected time and memory.
func SampleWithoutReplacement(r *rand.Rand, n, k int) ([]int, error) {
	if k < 0 || k > n {
		return nil, fmt.Errorf("rng: cannot sample %d from %d", k, n)
	}
	chosen := make(map[int]struct{}, k)
	out := make([]int, 0, k)
	for j := n - k; j < n; j++ {
		t := r.IntN(j + 1)
		if _, ok := chosen[t]; ok {
			t = j
		}
		chosen[t] = struct{}{}
		out = append(out, t)
	}
	Shuffle(r, out)
	return out, nil
}

// Bernoulli reports true with probability p.
func Bernoulli(r *rand.Rand, p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.Float64() < p
}
