package osn

import (
	"github.com/accu-sim/accu/internal/obs"
	"github.com/accu-sim/accu/internal/rng"
)

// Realization is one ground-truth draw Φ of the instance's randomness:
// which potential edges actually exist and which reckless users would
// accept a friend request (§II-B). Cautious users carry no random state —
// their acceptance is a deterministic function of the attacker's friends.
// A Realization is immutable and safe to share.
type Realization struct {
	inst       *Instance
	edgeExists []bool // aligned with CSR slots, symmetric
	accepts    []bool // reckless users only
	// acceptsLow/acceptsHigh pre-draw the two possible coin flips of a
	// cautious user under the generalized §III-B model: acceptsLow is
	// consulted when the request arrives below threshold (probability
	// QLow), acceptsHigh at/above threshold (probability QHigh). Under
	// the paper's deterministic model these are constants false/true.
	acceptsLow  []bool
	acceptsHigh []bool
}

// SampleRealization draws a realization: each potential edge (u, v)
// exists independently with probability p(u, v) and each reckless user u
// accepts with probability q(u).
func (in *Instance) SampleRealization(seed rng.Seed) *Realization {
	defer obs.StartSpan(in.mSampleNS).End()
	r := seed.Split("osn-realization").Rand()
	re := &Realization{
		inst:        in,
		edgeExists:  make([]bool, in.g.AdjSize()),
		accepts:     make([]bool, in.N()),
		acceptsLow:  make([]bool, in.N()),
		acceptsHigh: make([]bool, in.N()),
	}
	in.g.EachEdgeSlot(func(_, _, uv, vu int) bool {
		if rng.Bernoulli(r, in.edgeProb[uv]) {
			re.edgeExists[uv] = true
			re.edgeExists[vu] = true
		}
		return true
	})
	for u := 0; u < in.N(); u++ {
		switch in.kind[u] {
		case Reckless:
			re.accepts[u] = rng.Bernoulli(r, in.acceptProb[u])
		case Cautious:
			re.acceptsLow[u] = rng.Bernoulli(r, in.qLow[u])
			re.acceptsHigh[u] = rng.Bernoulli(r, in.qHigh[u])
		}
	}
	return re
}

// FixedRealization builds a deterministic realization from explicit
// predicates, used by the theory package and tests. edgeExists is
// consulted once per undirected edge with u < v; accepts is consulted for
// reckless users only. Cautious users follow their model deterministically
// (acceptsLow iff QLow >= 1, acceptsHigh iff QHigh >= 1... i.e. the
// certain outcomes); use FixedRealizationCautious to pin their coins.
func (in *Instance) FixedRealization(edgeExists func(u, v int) bool, accepts func(u int) bool) *Realization {
	return in.FixedRealizationCautious(edgeExists, accepts, nil, nil)
}

// FixedRealizationCautious additionally pins the two cautious coin flips:
// low(u) is the below-threshold outcome, high(u) the at/above-threshold
// outcome. nil funcs resolve to the certain outcome (accept iff the
// corresponding probability is 1).
func (in *Instance) FixedRealizationCautious(edgeExists func(u, v int) bool, accepts func(u int) bool, low, high func(u int) bool) *Realization {
	re := &Realization{
		inst:        in,
		edgeExists:  make([]bool, in.g.AdjSize()),
		accepts:     make([]bool, in.N()),
		acceptsLow:  make([]bool, in.N()),
		acceptsHigh: make([]bool, in.N()),
	}
	in.g.EachEdgeSlot(func(u, v, uv, vu int) bool {
		if edgeExists == nil || edgeExists(u, v) {
			re.edgeExists[uv] = true
			re.edgeExists[vu] = true
		}
		return true
	})
	for u := 0; u < in.N(); u++ {
		switch in.kind[u] {
		case Reckless:
			re.accepts[u] = accepts == nil || accepts(u)
		case Cautious:
			if low != nil {
				re.acceptsLow[u] = low(u)
			} else {
				re.acceptsLow[u] = in.qLow[u] >= 1
			}
			if high != nil {
				re.acceptsHigh[u] = high(u)
			} else {
				re.acceptsHigh[u] = in.qHigh[u] >= 1
			}
		}
	}
	return re
}

// Instance returns the instance this realization was drawn from.
func (re *Realization) Instance() *Instance { return re.inst }

// EdgeExistsSlot reports whether the potential edge at the given CSR slot
// exists under this realization.
func (re *Realization) EdgeExistsSlot(slot int) bool { return re.edgeExists[slot] }

// EdgeExists reports whether the potential edge (u, v) exists. Absent
// potential edges report false.
func (re *Realization) EdgeExists(u, v int) bool {
	i := re.inst.g.IndexOf(u, v)
	return i >= 0 && re.edgeExists[i]
}

// Accepts reports whether reckless user u would accept a friend request.
// For cautious users it always reports false — their acceptance depends
// on the attack state; see AcceptsCautious.
func (re *Realization) Accepts(u int) bool { return re.accepts[u] }

// AcceptsCautious reports a cautious user's pre-drawn coin for the given
// threshold condition: the below-threshold coin if aboveThreshold is
// false, the at/above-threshold coin otherwise.
func (re *Realization) AcceptsCautious(u int, aboveThreshold bool) bool {
	if aboveThreshold {
		return re.acceptsHigh[u]
	}
	return re.acceptsLow[u]
}

// RealizedDegree counts the realized edges incident to u.
func (re *Realization) RealizedDegree(u int) int {
	base := re.inst.g.AdjBase(u)
	d := 0
	for i := 0; i < re.inst.g.Degree(u); i++ {
		if re.edgeExists[base+i] {
			d++
		}
	}
	return d
}
