package core

import (
	"fmt"
	"sort"

	"github.com/accu-sim/accu/internal/graph"
	"github.com/accu-sim/accu/internal/osn"
	"github.com/accu-sim/accu/internal/pagerank"
	"github.com/accu-sim/accu/internal/rng"
)

// StaticRank is a non-adaptive baseline that requests users in a fixed
// order computed once from the potential graph (ignoring observations),
// as the MaxDegree and PageRank baselines of §IV-A do.
//
// The order depends on the graph alone, so a reused instance keeps it
// for as long as successive attacks run on the same graph (every run of
// one network). Holding the graph pointer keeps that graph alive, so a
// later graph can never reuse its address and alias the cached order.
type StaticRank struct {
	name string
	rank func(g *graph.Graph) ([]int, error)

	graph *graph.Graph // the graph order was ranked on
	order []int
	next  int
}

var _ Policy = (*StaticRank)(nil)

// NewMaxDegree returns the MaxDegree baseline: iteratively pick the
// highest-degree user in the network. Ties break toward lower ids.
func NewMaxDegree() *StaticRank {
	return &StaticRank{
		name: "maxdegree",
		rank: func(g *graph.Graph) ([]int, error) { return degreeOrder(g), nil },
	}
}

// degreeOrder lists g's nodes by descending degree, ties by ascending id,
// with one counting sort over the degrees: O(n + maxdeg).
func degreeOrder(g *graph.Graph) []int {
	maxDeg := 0
	for u := 0; u < g.N(); u++ {
		maxDeg = max(maxDeg, g.Degree(u))
	}
	// next[maxDeg-d] is where the next node of degree d goes.
	next := make([]int, maxDeg+1)
	for u := 0; u < g.N(); u++ {
		next[maxDeg-g.Degree(u)]++
	}
	pos := 0
	for i, c := range next {
		next[i] = pos
		pos += c
	}
	order := make([]int, g.N())
	for u := 0; u < g.N(); u++ {
		i := maxDeg - g.Degree(u)
		order[next[i]] = u
		next[i]++
	}
	return order
}

// NewPageRank returns the PageRank baseline: pick users by descending
// PageRank score on the potential graph.
func NewPageRank() *StaticRank {
	return &StaticRank{
		name: "pagerank",
		rank: func(g *graph.Graph) ([]int, error) {
			scores, err := pagerank.Scores(g, pagerank.DefaultOptions())
			if err != nil {
				return nil, fmt.Errorf("core: pagerank baseline: %w", err)
			}
			order := identity(len(scores))
			sort.SliceStable(order, func(i, j int) bool {
				return scores[order[i]] > scores[order[j]]
			})
			return order, nil
		},
	}
}

// Name implements Policy.
func (s *StaticRank) Name() string { return s.name }

// Init implements Policy: rank the attack's graph unless the order
// already belongs to it.
func (s *StaticRank) Init(st *osn.State) error {
	s.next = 0
	g := st.Instance().Graph()
	if g == s.graph {
		return nil
	}
	order, err := s.rank(g)
	if err != nil {
		s.graph, s.order = nil, nil
		return err
	}
	s.graph, s.order = g, order
	return nil
}

// SelectNext implements Policy.
func (s *StaticRank) SelectNext(st *osn.State) (int, bool) {
	for s.next < len(s.order) {
		u := s.order[s.next]
		s.next++
		if !st.Requested(u) {
			return u, true
		}
	}
	return 0, false
}

// Observe implements Policy.
func (s *StaticRank) Observe(*osn.State, osn.Outcome) {}

// Reseed implements Reusable: the static order never depends on a seed;
// Init recomputes it when the graph changes.
func (s *StaticRank) Reseed(rng.Seed) {}

// Random is the uniform-random baseline.
type Random struct {
	seed  rng.Seed
	order []int
	next  int
}

var _ Policy = (*Random)(nil)

// NewRandom returns the random baseline; the seed fixes the request order
// for reproducibility.
func NewRandom(seed rng.Seed) *Random { return &Random{seed: seed} }

// Name implements Policy.
func (r *Random) Name() string { return "random" }

// Init implements Policy.
func (r *Random) Init(st *osn.State) error {
	r.order = identity(st.Instance().N())
	rng.Shuffle(r.seed.Split("random-policy").Rand(), r.order)
	r.next = 0
	return nil
}

// SelectNext implements Policy.
func (r *Random) SelectNext(st *osn.State) (int, bool) {
	for r.next < len(r.order) {
		u := r.order[r.next]
		r.next++
		if !st.Requested(u) {
			return u, true
		}
	}
	return 0, false
}

// Observe implements Policy.
func (r *Random) Observe(*osn.State, osn.Outcome) {}

// Reseed implements Reusable: a reseeded Random is indistinguishable from
// NewRandom(seed) — Init re-derives the shuffle from the stored seed.
func (r *Random) Reseed(seed rng.Seed) { r.seed = seed }

// Scheduler-level reuse compliance for all shipped policies.
var (
	_ Reusable = (*ABM)(nil)
	_ Reusable = (*StaticRank)(nil)
	_ Reusable = (*Random)(nil)
)

func identity(n int) []int {
	xs := make([]int, n)
	for i := range xs {
		xs[i] = i
	}
	return xs
}
