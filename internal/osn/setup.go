package osn

import (
	"errors"
	"fmt"
	"math"

	"github.com/accu-sim/accu/internal/graph"
	"github.com/accu-sim/accu/internal/rng"
)

// ErrNotEnoughCandidates is returned when the degree band does not contain
// enough independent nodes for the requested cautious-user count.
var ErrNotEnoughCandidates = errors.New("osn: not enough cautious-user candidates")

// Setup describes the experiment-protocol parameters of §IV-A used to
// dress a bare graph into an ACCU instance.
type Setup struct {
	// NumCautious is the number of cautious users to select (paper: 100).
	NumCautious int
	// DegreeLo and DegreeHi bound the degree band cautious users are
	// drawn from (paper: [10, 100]).
	DegreeLo, DegreeHi int
	// ThetaFraction sets θ(v) = max(1, round(ThetaFraction·deg(v)))
	// (paper: 0.3).
	ThetaFraction float64
	// BFriendReckless is B_f(u) for reckless users (paper: 2).
	BFriendReckless float64
	// BFriendCautious is B_f(v) for cautious users (paper: 50 default).
	BFriendCautious float64
	// BFof is B_fof(u) for all users (paper: 1).
	BFof float64
	// QLowCautious and QHighCautious select the generalized §III-B
	// acceptance model for cautious users: accept with QLowCautious
	// below threshold and QHighCautious at/above. Both zero selects the
	// paper's deterministic model (QLow=0, QHigh=1).
	QLowCautious, QHighCautious float64
}

// DefaultSetup returns the §IV-A parameters.
func DefaultSetup() Setup {
	return Setup{
		NumCautious:     100,
		DegreeLo:        10,
		DegreeHi:        100,
		ThetaFraction:   0.3,
		BFriendReckless: 2,
		BFriendCautious: 50,
		BFof:            1,
	}
}

// Build dresses the graph into an Instance following the experiment
// protocol: edge-existence probabilities and reckless acceptance
// probabilities are drawn uniformly from [0, 1); cautious users are drawn
// from the degree band, iteratively, skipping any node adjacent to an
// already-selected cautious user so that V_C is an independent set.
func (s Setup) Build(g *graph.Graph, seed rng.Seed) (*Instance, error) {
	if s.NumCautious < 0 {
		return nil, fmt.Errorf("osn: NumCautious %d must be >= 0", s.NumCautious)
	}
	if s.ThetaFraction <= 0 || s.ThetaFraction > 1 {
		return nil, fmt.Errorf("osn: ThetaFraction %v not in (0, 1]", s.ThetaFraction)
	}
	if s.BFriendReckless < s.BFof || s.BFriendCautious < s.BFof {
		return nil, fmt.Errorf("%w: B_f (%v, %v) below B_fof %v",
			ErrBadBenefit, s.BFriendReckless, s.BFriendCautious, s.BFof)
	}
	n := g.N()
	r := seed.Split("osn-setup").Rand()

	// Cautious selection: shuffle the degree band, greedily take
	// non-adjacent nodes.
	band := g.NodesInDegreeBand(s.DegreeLo, s.DegreeHi)
	rng.Shuffle(r, band)
	isCautious := make([]bool, n)
	blocked := make([]bool, n)
	selected := 0
	for _, u := range band {
		if selected == s.NumCautious {
			break
		}
		if blocked[u] {
			continue
		}
		isCautious[u] = true
		selected++
		for _, v := range g.Neighbors(u) {
			blocked[v] = true
		}
		blocked[u] = true
	}
	if selected < s.NumCautious {
		return nil, fmt.Errorf("%w: want %d, found %d in degree band [%d, %d]",
			ErrNotEnoughCandidates, s.NumCautious, selected, s.DegreeLo, s.DegreeHi)
	}

	qLow, qHigh := s.QLowCautious, s.QHighCautious
	if qLow == 0 && qHigh == 0 {
		qHigh = 1 // the paper's deterministic model
	}
	if qLow < 0 || qHigh > 1 || qLow > qHigh {
		return nil, fmt.Errorf("%w: QLowCautious=%v QHighCautious=%v", ErrBadProbability, qLow, qHigh)
	}
	p := Params{
		Kind:       make([]Kind, n),
		AcceptProb: make([]float64, n),
		Theta:      make([]int, n),
		BFriend:    make([]float64, n),
		BFof:       make([]float64, n),
		EdgeProb:   make([]float64, g.AdjSize()),
		QLow:       make([]float64, n),
		QHigh:      make([]float64, n),
	}
	for u := 0; u < n; u++ {
		p.BFof[u] = s.BFof
		p.QHigh[u] = 1
		if isCautious[u] {
			p.Kind[u] = Cautious
			p.Theta[u] = thetaFor(g.Degree(u), s.ThetaFraction)
			p.BFriend[u] = s.BFriendCautious
			p.QLow[u] = qLow
			p.QHigh[u] = qHigh
			continue
		}
		p.Kind[u] = Reckless
		p.AcceptProb[u] = r.Float64()
		p.BFriend[u] = s.BFriendReckless
	}
	// Symmetric uniform edge probabilities.
	g.EachEdgeSlot(func(_, _, uv, vu int) bool {
		pe := r.Float64()
		p.EdgeProb[uv] = pe
		p.EdgeProb[vu] = pe
		return true
	})
	return newInstance(g, p)
}

// thetaFor computes the cautious threshold for a node of the given degree.
func thetaFor(degree int, fraction float64) int {
	th := int(math.Round(fraction * float64(degree)))
	if th < 1 {
		th = 1
	}
	return th
}
