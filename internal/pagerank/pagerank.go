// Package pagerank implements power-iteration PageRank on undirected
// graphs, used as a baseline target-selection policy in the paper's
// experiments (§IV-A).
package pagerank

import (
	"fmt"
	"math"

	"github.com/accu-sim/accu/internal/graph"
)

// Options control the power iteration. The zero value is not valid;
// use DefaultOptions.
type Options struct {
	// Damping is the damping factor (the paper-standard 0.85).
	Damping float64
	// MaxIter bounds the number of iterations.
	MaxIter int
	// Tol is the L1 convergence tolerance.
	Tol float64
}

// DefaultOptions returns the conventional PageRank parameters.
func DefaultOptions() Options {
	return Options{Damping: 0.85, MaxIter: 100, Tol: 1e-9}
}

// Scores runs power iteration and returns the PageRank score of every
// node. On an undirected graph each edge is treated as two directed arcs.
// Dangling (isolated) nodes distribute their mass uniformly.
func Scores(g *graph.Graph, opts Options) ([]float64, error) {
	if opts.Damping <= 0 || opts.Damping >= 1 {
		return nil, fmt.Errorf("pagerank: damping %v not in (0, 1)", opts.Damping)
	}
	if opts.MaxIter <= 0 {
		return nil, fmt.Errorf("pagerank: MaxIter %d must be positive", opts.MaxIter)
	}
	if opts.Tol <= 0 {
		return nil, fmt.Errorf("pagerank: Tol %v must be positive", opts.Tol)
	}
	n := g.N()
	if n == 0 {
		return nil, nil
	}

	cur := make([]float64, n)
	next := make([]float64, n)
	inv := 1 / float64(n)
	for i := range cur {
		cur[i] = inv
	}

	for iter := 0; iter < opts.MaxIter; iter++ {
		var dangling float64
		for u := 0; u < n; u++ {
			if g.Degree(u) == 0 {
				dangling += cur[u]
			}
			next[u] = 0
		}
		base := float64((1-opts.Damping)*inv) + float64(opts.Damping*dangling*inv)
		for u := 0; u < n; u++ {
			next[u] += base
			d := g.Degree(u)
			if d == 0 {
				continue
			}
			share := opts.Damping * cur[u] / float64(d)
			for _, v := range g.Neighbors(u) {
				next[v] += share
			}
		}
		var delta float64
		for i := range cur {
			delta += math.Abs(next[i] - cur[i])
		}
		cur, next = next, cur
		if delta < opts.Tol {
			break
		}
	}
	return cur, nil
}
