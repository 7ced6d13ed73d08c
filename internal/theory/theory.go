// Package theory implements the analytical machinery of §III: exact
// expected marginal gains Δ(u|ω) by realization enumeration, the
// realization-specific adaptive submodular ratio (RASR, Definition 4) by
// exhaustive subset search, the closed forms of Lemma 4 and the upper
// bound of Lemma 5, the non-submodularity witness of Fig. 1, the
// unbounded-curvature example of §III-B, a brute-force optimal adaptive
// policy, and an exact greedy evaluator — together these verify the
// 1 − e^{−λ} guarantee of Theorem 1 on small instances.
//
// Everything here is exponential-time by design and intended for tiny
// instances (≤ ~12 users, ≤ ~16 random bits).
package theory

import (
	"errors"
	"fmt"
	"math"

	"github.com/accu-sim/accu/internal/osn"
)

// ErrTooLarge is returned when an instance is too big to enumerate.
var ErrTooLarge = errors.New("theory: instance too large for exhaustive analysis")

// ErrNotDeterministic is returned by the submodular-ratio machinery when
// cautious users follow the generalized (soft) acceptance model: the
// order-free set function underlying inequality (5) is only well defined
// for the paper's deterministic linear-threshold model. Use
// CurvatureDelta/CurvatureBound for the generalized model instead.
var ErrNotDeterministic = errors.New("theory: submodular ratio requires the deterministic cautious model")

// maxRandomBits bounds the enumeration 2^bits.
const maxRandomBits = 18

// WeightedRealization pairs a realization with its probability.
type WeightedRealization struct {
	R *osn.Realization
	P float64
}

// EnumerateRealizations expands every realization of the instance with
// non-zero probability. Deterministic coordinates (p ∈ {0, 1}, q ∈ {0, 1})
// consume no enumeration bits.
func EnumerateRealizations(inst *osn.Instance) ([]WeightedRealization, error) {
	g := inst.Graph()

	type coin struct {
		// kind: 0 = reckless acceptance, 1 = cautious low coin,
		// 2 = cautious high coin, 3 = edge.
		kind int
		user int
		u, v int
		p    float64
	}
	var coins []coin
	for u := 0; u < inst.N(); u++ {
		switch inst.Kind(u) {
		case osn.Reckless:
			if q := inst.AcceptProb(u); q > 0 && q < 1 {
				coins = append(coins, coin{kind: 0, user: u, p: q})
			}
		case osn.Cautious:
			if q := inst.QLow(u); q > 0 && q < 1 {
				coins = append(coins, coin{kind: 1, user: u, p: q})
			}
			if q := inst.QHigh(u); q > 0 && q < 1 {
				coins = append(coins, coin{kind: 2, user: u, p: q})
			}
		}
	}
	g.EachEdge(func(u, v int) bool {
		if p := inst.EdgeProbUV(u, v); p > 0 && p < 1 {
			coins = append(coins, coin{kind: 3, u: u, v: v, p: p})
		}
		return true
	})
	if len(coins) > maxRandomBits {
		return nil, fmt.Errorf("%w: %d random bits", ErrTooLarge, len(coins))
	}

	total := 1 << len(coins)
	out := make([]WeightedRealization, 0, total)
	for mask := 0; mask < total; mask++ {
		prob := 1.0
		acceptOverride := make(map[int]bool, len(coins))
		lowOverride := make(map[int]bool, len(coins))
		highOverride := make(map[int]bool, len(coins))
		edgeOverride := make(map[[2]int]bool, len(coins))
		for i, c := range coins {
			on := mask&(1<<i) != 0
			if on {
				prob *= c.p
			} else {
				prob *= 1 - c.p
			}
			switch c.kind {
			case 0:
				acceptOverride[c.user] = on
			case 1:
				lowOverride[c.user] = on
			case 2:
				highOverride[c.user] = on
			case 3:
				edgeOverride[[2]int{c.u, c.v}] = on
			}
		}
		re := inst.FixedRealizationCautious(
			func(u, v int) bool {
				if on, ok := edgeOverride[[2]int{u, v}]; ok {
					return on
				}
				return inst.EdgeProbUV(u, v) >= 1
			},
			func(u int) bool {
				if on, ok := acceptOverride[u]; ok {
					return on
				}
				return inst.AcceptProb(u) >= 1
			},
			func(u int) bool {
				if on, ok := lowOverride[u]; ok {
					return on
				}
				return inst.QLow(u) >= 1
			},
			func(u int) bool {
				if on, ok := highOverride[u]; ok {
					return on
				}
				return inst.QHigh(u) >= 1
			},
		)
		out = append(out, WeightedRealization{R: re, P: prob})
	}
	return out, nil
}

// CurvatureDelta computes δ = max over cautious users of QHigh/QLow, the
// adaptive total primal curvature bound of §III-B's generalized
// acceptance model. It returns +Inf when some cautious user has QLow = 0
// (the paper's deterministic model), where the curvature technique fails.
func CurvatureDelta(inst *osn.Instance) float64 {
	delta := 1.0
	for _, v := range inst.Cautious() {
		lo, hi := inst.QLow(v), inst.QHigh(v)
		if lo == 0 {
			if hi > 0 {
				return math.Inf(1)
			}
			continue
		}
		if r := hi / lo; r > delta {
			delta = r
		}
	}
	return delta
}

// CurvatureBound returns the §III-B greedy guarantee
// 1 − (1 − 1/(δk))^k for the generalized model. It returns 0 when δ is
// unbounded — the motivating failure that the adaptive submodular ratio
// repairs.
func CurvatureBound(delta float64, k int) float64 {
	if math.IsInf(delta, 1) || delta <= 0 || k <= 0 {
		return 0
	}
	return 1 - math.Pow(1-1/(delta*float64(k)), float64(k))
}

// simulate replays a request sequence against a realization and returns
// the final attack state.
func simulate(re *osn.Realization, seq []int) (*osn.State, error) {
	st := osn.NewState(re)
	for _, u := range seq {
		if _, err := st.Request(u); err != nil {
			return nil, err
		}
	}
	return st, nil
}

// BenefitOf returns f(seq, φ): the benefit of sending the requests in
// order against realization φ.
func BenefitOf(re *osn.Realization, seq []int) (float64, error) {
	st, err := simulate(re, seq)
	if err != nil {
		return 0, err
	}
	return st.Benefit(), nil
}

// observationKey summarizes everything the attacker observed while
// executing seq against a realization: per-request accept bits and, for
// accepted users, the realized incident edge bits. Realizations with
// equal keys are indistinguishable to the attacker (φ ~ ω).
func observationKey(inst *osn.Instance, re *osn.Realization, seq []int) (string, error) {
	st := osn.NewState(re)
	g := inst.Graph()
	key := make([]byte, 0, 8*len(seq))
	for _, u := range seq {
		out, err := st.Request(u)
		if err != nil {
			return "", err
		}
		if !out.Accepted {
			key = append(key, '0')
			continue
		}
		key = append(key, '1', ':')
		base := g.AdjBase(u)
		for i := 0; i < g.Degree(u); i++ {
			if re.EdgeExistsSlot(base + i) {
				key = append(key, 'e')
			} else {
				key = append(key, '.')
			}
		}
	}
	return string(key), nil
}

// Delta computes the exact expected marginal gain Δ(u|ω) where ω is the
// partial realization produced by executing seq against the reference
// realization ref: the expectation of f(dom(ω)∪{u}) − f(dom(ω)) over all
// realizations consistent with ω.
func Delta(inst *osn.Instance, all []WeightedRealization, ref *osn.Realization, seq []int, u int) (float64, error) {
	refKey, err := observationKey(inst, ref, seq)
	if err != nil {
		return 0, err
	}
	var num, den float64
	ext := append(append([]int(nil), seq...), u)
	for _, wr := range all {
		if wr.P == 0 {
			continue
		}
		k, err := observationKey(inst, wr.R, seq)
		if err != nil {
			return 0, err
		}
		if k != refKey {
			continue
		}
		before, err := BenefitOf(wr.R, seq)
		if err != nil {
			return 0, err
		}
		after, err := BenefitOf(wr.R, ext)
		if err != nil {
			return 0, err
		}
		num += float64(wr.P * (after - before))
		den += wr.P
	}
	if den == 0 {
		return 0, fmt.Errorf("theory: no realization consistent with observation %q", refKey)
	}
	return num / den, nil
}

// maxUsers bounds exhaustive subset enumeration (4^n pairs).
const maxUsers = 12

// BenefitSet evaluates the set function f(S, φ) used by the submodularity
// ratio: requests are sent in the order that maximizes acceptance —
// reckless users first, then cautious users repeatedly until no further
// threshold unlocks (the monotone closure). This matches the paper's
// treatment of a realization as a deterministic graph, where for greedy
// and optimal policies the request order is immaterial (Lemma 2).
func BenefitSet(inst *osn.Instance, re *osn.Realization, set []int) (float64, error) {
	if !inst.Deterministic() {
		return 0, ErrNotDeterministic
	}
	st := osn.NewState(re)
	var cautious []int
	for _, u := range set {
		if inst.Kind(u) == osn.Cautious {
			cautious = append(cautious, u)
			continue
		}
		if _, err := st.Request(u); err != nil {
			return 0, err
		}
	}
	// Fixpoint over cautious users: request any whose threshold holds.
	pending := append([]int(nil), cautious...)
	for {
		progressed := false
		next := pending[:0]
		for _, v := range pending {
			if st.Mutual(v) >= inst.Theta(v) {
				if _, err := st.Request(v); err != nil {
					return 0, err
				}
				progressed = true
				continue
			}
			next = append(next, v)
		}
		pending = next
		if !progressed || len(pending) == 0 {
			break
		}
	}
	// Unrequestable cautious users burn their request without effect —
	// consistent with rejection semantics; benefit unaffected.
	for _, v := range pending {
		if _, err := st.Request(v); err != nil {
			return 0, err
		}
	}
	return st.Benefit(), nil
}

// RASR computes the realization-specific adaptive submodular ratio λ_φ
// (Definition 4) by exhaustive enumeration of all subset pairs (S, T):
//
//	λ_φ = min over S,T with ρ_T(S) > 0 of Σ_{u∈T\S} ρ_{u}(S) / ρ_T(S)
//
// capped at 1 (a submodular realization attains 1).
func RASR(inst *osn.Instance, re *osn.Realization) (float64, error) {
	n := inst.N()
	if n > maxUsers {
		return 0, fmt.Errorf("%w: %d users", ErrTooLarge, n)
	}
	if !inst.Deterministic() {
		return 0, ErrNotDeterministic
	}
	// Precompute f for all subsets.
	f := make([]float64, 1<<n)
	for mask := 1; mask < 1<<n; mask++ {
		set := maskToSet(mask, n)
		v, err := BenefitSet(inst, re, set)
		if err != nil {
			return 0, err
		}
		f[mask] = v
	}

	lambda := 1.0
	for s := 0; s < 1<<n; s++ {
		fs := f[s]
		for t := 1; t < 1<<n; t++ {
			rhoT := f[s|t] - fs
			if rhoT <= 1e-12 {
				continue
			}
			var lhs float64
			for u := 0; u < n; u++ {
				bit := 1 << u
				if t&bit != 0 && s&bit == 0 {
					lhs += f[s|bit] - fs
				}
			}
			if ratio := lhs / rhoT; ratio < lambda {
				lambda = ratio
			}
		}
	}
	return lambda, nil
}

func maskToSet(mask, n int) []int {
	set := make([]int, 0, n)
	for u := 0; u < n; u++ {
		if mask&(1<<u) != 0 {
			set = append(set, u)
		}
	}
	return set
}

// AdaptiveSubmodularRatio computes λ = min_φ λ_φ (Definition 5) by
// enumerating all realizations.
func AdaptiveSubmodularRatio(inst *osn.Instance) (float64, error) {
	all, err := EnumerateRealizations(inst)
	if err != nil {
		return 0, err
	}
	lambda := 1.0
	for _, wr := range all {
		if wr.P == 0 {
			continue
		}
		l, err := RASR(inst, wr.R)
		if err != nil {
			return 0, err
		}
		if l < lambda {
			lambda = l
		}
	}
	return lambda, nil
}

// Bound returns the Theorem 1 guarantee 1 − e^{−λ}.
func Bound(lambda float64) float64 { return 1 - math.Exp(-lambda) }
