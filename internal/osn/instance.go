// Package osn implements the attack environment of the ACCU problem
// (§II of the paper): the probabilistic social network G = (V, E, p), the
// two friend-request acceptance models (probabilistic for reckless users,
// linear-threshold for cautious users), the benefit model, ground-truth
// realization sampling, and the attacker's partial-realization state with
// its observation updates.
package osn

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"github.com/accu-sim/accu/internal/graph"
	"github.com/accu-sim/accu/internal/obs"
)

// Kind classifies a user by acceptance model.
type Kind uint8

// User kinds. Reckless users accept with probability q(u); cautious users
// accept deterministically iff the mutual-friend threshold θ is met.
const (
	Reckless Kind = iota + 1
	Cautious
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Reckless:
		return "reckless"
	case Cautious:
		return "cautious"
	default:
		return fmt.Sprintf("Kind(%d)", uint8(k))
	}
}

// Errors returned by instance construction and validation.
var (
	ErrShapeMismatch  = errors.New("osn: attribute length does not match graph")
	ErrBadProbability = errors.New("osn: probability out of [0, 1]")
	ErrBadThreshold   = errors.New("osn: cautious threshold must be positive")
	ErrBadBenefit     = errors.New("osn: benefit must be finite and non-negative")
)

// Instance is a fully specified ACCU problem instance: the potential
// friendship graph with link-existence probabilities, the user kinds and
// their acceptance parameters, and the benefit model. Instances are
// immutable after construction and safe to share across goroutines.
type Instance struct {
	g *graph.Graph

	// edgeProb[i] is p(u, v) for the directed CSR slot i = AdjBase(u)+j,
	// v = Neighbors(u)[j]. Symmetric: both slots of an undirected edge
	// hold the same value.
	edgeProb []float64

	kind       []Kind
	acceptProb []float64 // q(u); meaningful for reckless users only
	theta      []int     // θ(v); meaningful for cautious users only
	qLow       []float64 // cautious acceptance below threshold (default 0)
	qHigh      []float64 // cautious acceptance at/above threshold (default 1)
	bFriend    []float64 // B_f(u)
	bFof       []float64 // B_fof(u)

	cautious []int // sorted list of cautious users

	fixedScale float64 // 2^S for fixed-point benefit sums; see FixedScale

	// Instruments resolved by Instrument; nil (no-op) by default. They
	// are atomic and shared by every State and Realization of this
	// instance, so concurrent attacks may report into one registry.
	mSampleNS      *obs.Histogram // SampleRealization wall time
	mRevealNS      *obs.Histogram // per-acceptance neighborhood-reveal (mutual-count kernel) time
	mRequests      *obs.Counter   // friend requests sent
	mAccepts       *obs.Counter   // requests accepted
	mEdgesRevealed *obs.Counter   // realized edges revealed by acceptances
}

// Instrument resolves the instance's environment metrics — realization
// sampling time, the per-acceptance mutual-count reveal kernel, and
// request/accept counters — against the given registry. Call it before
// the instance is shared across goroutines (the simulator does so right
// after Setup.Build); a nil registry leaves the instance uninstrumented.
func (in *Instance) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	in.mSampleNS = reg.Histogram("osn.sample_realization_ns")
	in.mRevealNS = reg.Histogram("osn.reveal_ns")
	in.mRequests = reg.Counter("osn.requests")
	in.mAccepts = reg.Counter("osn.accepts")
	in.mEdgesRevealed = reg.Counter("osn.edges_revealed")
}

// Params bundles the per-node and per-edge attributes used to build an
// Instance. Slices must have length G.N() (attributes) and G.AdjSize()
// (EdgeProb), except that nil EdgeProb defaults to all-1 (deterministic
// edges).
type Params struct {
	Kind       []Kind
	AcceptProb []float64
	Theta      []int
	BFriend    []float64
	BFof       []float64
	EdgeProb   []float64

	// QLow and QHigh generalize the cautious acceptance model (§III-B):
	// a cautious user below threshold accepts with probability QLow and
	// at/above threshold with probability QHigh. nil defaults to the
	// paper's deterministic linear-threshold model (QLow=0, QHigh=1).
	// Must satisfy 0 <= QLow <= QHigh <= 1; ignored for reckless users.
	QLow, QHigh []float64
}

// NewInstance validates the parameters and builds an immutable instance.
// All slices are copied at the boundary.
func NewInstance(g *graph.Graph, p Params) (*Instance, error) {
	return newInstance(g, p.clone())
}

// clone deep-copies the parameter slices; nil slices stay nil.
func (p Params) clone() Params {
	return Params{
		Kind:       slices.Clone(p.Kind),
		AcceptProb: slices.Clone(p.AcceptProb),
		Theta:      slices.Clone(p.Theta),
		BFriend:    slices.Clone(p.BFriend),
		BFof:       slices.Clone(p.BFof),
		EdgeProb:   slices.Clone(p.EdgeProb),
		QLow:       slices.Clone(p.QLow),
		QHigh:      slices.Clone(p.QHigh),
	}
}

// newInstance is NewInstance for parameters the instance may keep: the
// caller hands over p's slices and must not touch them afterwards.
func newInstance(g *graph.Graph, p Params) (*Instance, error) {
	n := g.N()
	if len(p.Kind) != n || len(p.AcceptProb) != n || len(p.Theta) != n ||
		len(p.BFriend) != n || len(p.BFof) != n {
		return nil, fmt.Errorf("%w: n=%d kinds=%d q=%d theta=%d bf=%d bfof=%d",
			ErrShapeMismatch, n, len(p.Kind), len(p.AcceptProb), len(p.Theta), len(p.BFriend), len(p.BFof))
	}
	if p.EdgeProb != nil && len(p.EdgeProb) != g.AdjSize() {
		return nil, fmt.Errorf("%w: edgeProb=%d adjSize=%d", ErrShapeMismatch, len(p.EdgeProb), g.AdjSize())
	}
	if (p.QLow != nil && len(p.QLow) != n) || (p.QHigh != nil && len(p.QHigh) != n) {
		return nil, fmt.Errorf("%w: qLow=%d qHigh=%d n=%d", ErrShapeMismatch, len(p.QLow), len(p.QHigh), n)
	}
	if (p.QLow == nil) != (p.QHigh == nil) {
		return nil, fmt.Errorf("%w: QLow and QHigh must be provided together", ErrShapeMismatch)
	}

	inst := &Instance{
		g:          g,
		kind:       p.Kind,
		acceptProb: p.AcceptProb,
		theta:      p.Theta,
		bFriend:    p.BFriend,
		bFof:       p.BFof,
		edgeProb:   p.EdgeProb,
		qLow:       p.QLow,
		qHigh:      p.QHigh,
	}
	if p.EdgeProb == nil {
		inst.edgeProb = make([]float64, g.AdjSize())
		for i := range inst.edgeProb {
			inst.edgeProb[i] = 1
		}
	}
	if p.QLow == nil {
		// The paper's deterministic linear-threshold model.
		inst.qLow = make([]float64, n)
		inst.qHigh = make([]float64, n)
		for i := range inst.qHigh {
			inst.qHigh[i] = 1
		}
	}

	for u := 0; u < n; u++ {
		switch inst.kind[u] {
		case Reckless:
			if bad(inst.acceptProb[u]) {
				return nil, fmt.Errorf("%w: q(%d) = %v", ErrBadProbability, u, inst.acceptProb[u])
			}
		case Cautious:
			if inst.theta[u] < 1 {
				return nil, fmt.Errorf("%w: θ(%d) = %d", ErrBadThreshold, u, inst.theta[u])
			}
			if bad(inst.qLow[u]) || bad(inst.qHigh[u]) || inst.qLow[u] > inst.qHigh[u] {
				return nil, fmt.Errorf("%w: cautious %d qLow=%v qHigh=%v",
					ErrBadProbability, u, inst.qLow[u], inst.qHigh[u])
			}
			inst.cautious = append(inst.cautious, u)
		default:
			return nil, fmt.Errorf("osn: node %d has invalid kind %d", u, inst.kind[u])
		}
		if badBenefit(inst.bFriend[u]) || badBenefit(inst.bFof[u]) {
			return nil, fmt.Errorf("%w: node %d B_f=%v B_fof=%v", ErrBadBenefit, u, inst.bFriend[u], inst.bFof[u])
		}
		if inst.bFriend[u] < inst.bFof[u] {
			return nil, fmt.Errorf("%w: node %d B_f=%v < B_fof=%v (paper requires B_f >= B_fof)",
				ErrBadBenefit, u, inst.bFriend[u], inst.bFof[u])
		}
	}
	for i, pe := range inst.edgeProb {
		if bad(pe) {
			return nil, fmt.Errorf("%w: edge slot %d = %v", ErrBadProbability, i, pe)
		}
	}
	// Symmetry check: p(u,v) == p(v,u).
	var symErr error
	g.EachEdgeSlot(func(u, v, uv, vu int) bool {
		if inst.edgeProb[uv] != inst.edgeProb[vu] {
			symErr = fmt.Errorf("osn: edge (%d,%d) probability asymmetric: %v vs %v",
				u, v, inst.edgeProb[uv], inst.edgeProb[vu])
			return false
		}
		return true
	})
	if symErr != nil {
		return nil, symErr
	}
	inst.fixedScale = fixedScale(g, inst.bFriend)
	return inst, nil
}

func bad(p float64) bool { return p < 0 || p > 1 || math.IsNaN(p) }

// badBenefit rejects negative, NaN and infinite benefits: an infinite
// B_f makes the ABM potential infinite or NaN and has no fixed-point form.
func badBenefit(b float64) bool { return b < 0 || math.IsNaN(b) || math.IsInf(b, 0) }

// fixedScale returns 2^S with S the largest exponent for which
// 2^eD · 2^eB · 2^S = 2^62, where (maxdeg+1) < 2^eD and max B_f < 2^eB.
// Then (maxdeg+1)·max B_f·2^S < 2^62, so a candidate's own benefit plus
// one truncated term per neighbour, each at most max B_f (B_fof <= B_f),
// fits an int64. S is capped at 1022 so that 2^S and 2^-S both stay
// normal float64s when every benefit is tiny or zero.
func fixedScale(g *graph.Graph, bFriend []float64) float64 {
	maxDeg, maxB := 0, 0.0
	for u := 0; u < g.N(); u++ {
		maxDeg = max(maxDeg, g.Degree(u))
	}
	for _, b := range bFriend {
		maxB = max(maxB, b)
	}
	_, eD := math.Frexp(float64(maxDeg + 1))
	_, eB := math.Frexp(maxB)
	return math.Ldexp(1, min(62-eD-eB, 1022))
}

// Params returns a deep copy of the instance's parameters, suitable for
// modification and rebuilding via NewInstance (used by defense analyses
// that harden users).
func (in *Instance) Params() Params {
	return Params{
		Kind:       in.kind,
		AcceptProb: in.acceptProb,
		Theta:      in.theta,
		BFriend:    in.bFriend,
		BFof:       in.bFof,
		EdgeProb:   in.edgeProb,
		QLow:       in.qLow,
		QHigh:      in.qHigh,
	}.clone()
}

// Graph returns the potential-friendship graph.
func (in *Instance) Graph() *graph.Graph { return in.g }

// N returns the number of users.
func (in *Instance) N() int { return in.g.N() }

// Kind returns the acceptance model of user u.
func (in *Instance) Kind(u int) Kind { return in.kind[u] }

// AcceptProb returns q(u), the acceptance probability of a reckless user.
func (in *Instance) AcceptProb(u int) float64 { return in.acceptProb[u] }

// Theta returns θ(u), the mutual-friend threshold of a cautious user.
func (in *Instance) Theta(u int) int { return in.theta[u] }

// QLow returns a cautious user's acceptance probability below threshold
// (0 in the paper's deterministic model).
func (in *Instance) QLow(u int) float64 { return in.qLow[u] }

// QHigh returns a cautious user's acceptance probability at/above
// threshold (1 in the paper's deterministic model).
func (in *Instance) QHigh(u int) float64 { return in.qHigh[u] }

// Deterministic reports whether every cautious user follows the paper's
// deterministic linear-threshold model (QLow=0, QHigh=1).
func (in *Instance) Deterministic() bool {
	for _, v := range in.cautious {
		if in.qLow[v] != 0 || in.qHigh[v] != 1 {
			return false
		}
	}
	return true
}

// FixedScale returns the power-of-two scale 2^S at which the ABM
// potential rounds each benefit term to an int64, so that its sums do
// not depend on summation order. S is a function of the graph and the
// benefits alone; see fixedScale for the rule.
func (in *Instance) FixedScale() float64 { return in.fixedScale }

// BFriend returns B_f(u).
func (in *Instance) BFriend(u int) float64 { return in.bFriend[u] }

// BFof returns B_fof(u).
func (in *Instance) BFof(u int) float64 { return in.bFof[u] }

// EdgeProb returns p(u, v) by CSR slot index (see graph.AdjBase).
func (in *Instance) EdgeProb(slot int) float64 { return in.edgeProb[slot] }

// EdgeProbUV returns p(u, v) by endpoints; 0 if the edge is absent from E.
func (in *Instance) EdgeProbUV(u, v int) float64 {
	i := in.g.IndexOf(u, v)
	if i < 0 {
		return 0
	}
	return in.edgeProb[i]
}

// Cautious returns the sorted cautious-user list. The caller must not
// modify it.
func (in *Instance) Cautious() []int { return in.cautious }

// NumCautious returns |V_C|.
func (in *Instance) NumCautious() int { return len(in.cautious) }
