package core

import (
	"fmt"

	"github.com/accu-sim/accu/internal/osn"
)

// Weights are the tunable importance of direct vs indirect gains in the
// ABM potential function P(u|ω) = q(u)·(WD·P_D + WI·P_I).
type Weights struct {
	// WD weighs the direct expected benefit P_D.
	WD float64
	// WI weighs the indirect benefit P_I of moving cautious users toward
	// their thresholds.
	WI float64
}

// DefaultWeights returns the paper's balanced setting w_D = w_I = 0.5.
func DefaultWeights() Weights { return Weights{WD: 0.5, WI: 0.5} }

// PolicyName returns the name an ABM policy with these weights reports:
// "greedy" for the pure w_I=0 greedy, "abm(wD=…,wI=…)" otherwise. It lets
// factories label records without constructing a probe policy.
func (w Weights) PolicyName() string {
	if w.WI == 0 {
		return "greedy"
	}
	return fmt.Sprintf("abm(wD=%.2f,wI=%.2f)", w.WD, w.WI)
}

// Validate checks the weights are usable.
func (w Weights) Validate() error {
	if w.WD < 0 || w.WI < 0 {
		return fmt.Errorf("core: weights must be non-negative, got %+v", w)
	}
	if w.WD == 0 && w.WI == 0 {
		return fmt.Errorf("core: at least one weight must be positive")
	}
	return nil
}

// Potential evaluates P(u|ω) for candidate u under the current attack
// state, per §III-A:
//
//	P(u|ω)  = q̂(u)·(w_D·P_D + w_I·P_I)
//	P_D     = B_f(u) − 1_FOF(u)·B_fof(u)
//	          + Σ_{v ∈ N(u)\N(s)} p̂_uv·(1 − 1_FOF(v))·B_fof(v)
//	P_I     = Σ_{v ∈ N(u)∩V_C, θ_v > |N(s)∩N(v)|}
//	          p̂_uv·(B_f(v) − B_fof(v)) / (θ_v − |N(s)∩N(v)|)
//
// where q̂(u) is q(u) for reckless users and, for cautious users, the
// deterministic acceptance indicator (1 iff the threshold is already
// met — any policy knows a below-threshold request would be rejected);
// p̂ is the attacker's posterior edge belief (1/0 once observed, the
// prior otherwise). Friends and already-requested users score 0.
//
// P_D and P_I are exact int64 sums of terms each rounded once to the
// instance's FixedScale (see fixedTerms), so their value does not depend
// on summation order: ABM's event-driven sums equal this from-scratch
// evaluation bit for bit.
func Potential(st osn.View, u int, w Weights) float64 {
	if st.Requested(u) || st.IsFriend(u) {
		return 0
	}
	inst := st.Instance()

	// q̂(u): q(u) for reckless users; the condition-matched QLow/QHigh
	// for cautious users (exactly the deterministic indicator under the
	// paper's model).
	q := st.AcceptChance(u)
	if q == 0 {
		return 0
	}

	t := newFixedTerms(inst)
	direct := t.own(u, st.IsFOF(u))
	var indirect int64

	g := inst.Graph()
	base := g.AdjBase(u)
	for i, v32 := range g.Neighbors(u) {
		v := int(v32)
		if st.IsFriend(v) {
			continue
		}
		on, deficit := w.neighbourState(inst, v, st.IsFOF(v), st.Mutual(v))
		if !on && deficit == 0 {
			continue
		}
		p := st.PosteriorEdgeProb(u, v, base+i)
		if on {
			direct += t.direct(p, v)
		}
		indirect += t.indirect(p, v, deficit)
	}
	return t.score(q, w, direct, indirect)
}

// neighbourState is the part of a non-friend neighbour v's state that
// its potential terms read: whether its direct term p·B_fof(v) is on
// (w_D > 0 and v not yet a friend-of-friend) and its cautious deficit
// θ_v − mutual(v) (0 when v is reckless, at threshold or w_I = 0).
func (w Weights) neighbourState(inst *osn.Instance, v int, fof bool, mutual int) (direct bool, deficit int32) {
	direct = w.WD > 0 && !fof
	if w.WI > 0 && inst.Kind(v) == osn.Cautious {
		if d := inst.Theta(v) - mutual; d > 0 {
			deficit = int32(d)
		}
	}
	return direct, deficit
}

// fixedTerms rounds the potential's terms to int64 at the instance's
// power-of-two scale 2^S (osn.Instance.FixedScale). Every term is
// non-negative and at most max B_f, and the scale keeps
// (maxdeg+1)·max B_f·2^S < 2^62, so a candidate's sums never overflow.
// A term is truncated once, to a multiple of 2^-S; terms below 2^-S
// vanish. Both the from-scratch Potential and ABM's incremental sums
// build their terms here, which is what makes them agree exactly.
type fixedTerms struct {
	inst  *osn.Instance
	scale float64 // 2^S
	unit  float64 // 2^-S
}

func newFixedTerms(inst *osn.Instance) fixedTerms {
	s := inst.FixedScale()
	return fixedTerms{inst: inst, scale: s, unit: 1 / s}
}

// fix converts a non-negative benefit amount to fixed point.
func (t fixedTerms) fix(x float64) int64 { return int64(x * t.scale) }

// own is u's own direct benefit B_f(u) − 1_FOF(u)·B_fof(u).
func (t fixedTerms) own(u int, fof bool) int64 {
	d := t.fix(t.inst.BFriend(u))
	if fof {
		d -= t.fix(t.inst.BFof(u))
	}
	return d
}

// direct is neighbour v's direct term p·B_fof(v) at edge belief p.
func (t fixedTerms) direct(p float64, v int) int64 {
	return t.fix(p * t.inst.BFof(v))
}

// indirect is cautious neighbour v's term p·(B_f(v) − B_fof(v))/deficit
// at edge belief p; 0 when the deficit is 0 (no term).
func (t fixedTerms) indirect(p float64, v int, deficit int32) int64 {
	if deficit == 0 {
		return 0
	}
	return t.fix(p * (t.inst.BFriend(v) - t.inst.BFof(v)) / float64(deficit))
}

// score combines the fixed-point sums into q̂·(w_D·P_D + w_I·P_I). The
// float64 conversions forbid fusing the weighted sum into one FMA, which
// would round differently on arm64, ppc64le, s390x and riscv64.
func (t fixedTerms) score(q float64, w Weights, direct, indirect int64) float64 {
	pd := float64(direct) * t.unit
	pi := float64(indirect) * t.unit
	return q * (float64(w.WD*pd) + float64(w.WI*pi))
}
