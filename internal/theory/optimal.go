package theory

import (
	"fmt"
	"math"

	"github.com/accu-sim/accu/internal/osn"
)

// policyValue computes the exact expected benefit of an adaptive policy
// by recursion over the attacker's belief tree. At each node the belief
// is the weighted set of realizations consistent with the observations of
// the request sequence so far; requesting u partitions the belief by
// observation outcome. choose picks the next request from the belief
// node, or -1 to stop.
type beliefNode struct {
	seq     []int
	members []WeightedRealization
	weight  float64
}

// OptimalValue computes the value of the optimal adaptive policy with
// budget k by exhaustive search over the belief tree (§II-B, the
// benchmark π* of Theorem 1). Exponential in both users and realizations;
// use only on tiny instances.
func OptimalValue(inst *osn.Instance, k int) (float64, error) {
	return searchValue(inst, k, true)
}

// GreedyValue computes the exact value of the adaptive greedy that
// maximizes the true expected marginal gain Δ(u|ω) at every step — the
// w_I = 0 policy analysed by Theorem 1 (the ABM potential is an efficient
// surrogate for this quantity; here we use the exact Δ).
func GreedyValue(inst *osn.Instance, k int) (float64, error) {
	return searchValue(inst, k, false)
}

func searchValue(inst *osn.Instance, k int, optimal bool) (float64, error) {
	if k <= 0 {
		return 0, fmt.Errorf("theory: budget %d must be positive", k)
	}
	all, err := EnumerateRealizations(inst)
	if err != nil {
		return 0, err
	}
	var total float64
	for _, wr := range all {
		total += wr.P
	}
	root := beliefNode{members: all, weight: total}
	return searchNode(inst, root, k, optimal)
}

// searchNode returns the expected *additional* benefit obtainable from
// this belief node with the remaining budget.
func searchNode(inst *osn.Instance, node beliefNode, budget int, optimal bool) (float64, error) {
	if budget == 0 || node.weight == 0 {
		return 0, nil
	}
	requested := make(map[int]bool, len(node.seq))
	for _, u := range node.seq {
		requested[u] = true
	}

	best := math.Inf(-1)
	chosen := -1
	// For the optimal policy we take the max over candidates of the full
	// look-ahead value. For the greedy policy we first pick the candidate
	// with the best one-step Δ, then recurse only on it.
	if !optimal {
		bestDelta := math.Inf(-1)
		for u := 0; u < inst.N(); u++ {
			if requested[u] {
				continue
			}
			d, err := nodeDelta(inst, node, u)
			if err != nil {
				return 0, err
			}
			if d > bestDelta+1e-12 {
				bestDelta = d
				chosen = u
			}
		}
		if chosen < 0 {
			return 0, nil
		}
		v, err := candidateValue(inst, node, chosen, budget, optimal)
		if err != nil {
			return 0, err
		}
		return v, nil
	}

	for u := 0; u < inst.N(); u++ {
		if requested[u] {
			continue
		}
		v, err := candidateValue(inst, node, u, budget, optimal)
		if err != nil {
			return 0, err
		}
		if v > best {
			best = v
			chosen = u
		}
	}
	if chosen < 0 {
		return 0, nil
	}
	return best, nil
}

// candidateValue computes E[gain of requesting u + future value] at the
// belief node.
func candidateValue(inst *osn.Instance, node beliefNode, u, budget int, optimal bool) (float64, error) {
	ext := append(append([]int(nil), node.seq...), u)
	groups := make(map[string]*beliefNode)
	var order []string
	for _, wr := range node.members {
		key, err := observationKey(inst, wr.R, ext)
		if err != nil {
			return 0, err
		}
		g, ok := groups[key]
		if !ok {
			g = &beliefNode{seq: ext}
			groups[key] = g
			order = append(order, key)
		}
		g.members = append(g.members, wr)
		g.weight += wr.P
	}
	var value float64
	for _, key := range order {
		g := groups[key]
		rep := g.members[0].R
		before, err := BenefitOf(rep, node.seq)
		if err != nil {
			return 0, err
		}
		after, err := BenefitOf(rep, ext)
		if err != nil {
			return 0, err
		}
		future, err := searchNode(inst, *g, budget-1, optimal)
		if err != nil {
			return 0, err
		}
		value += float64((g.weight / node.weight) * (after - before + future))
	}
	return value, nil
}

// nodeDelta computes Δ(u|ω) at a belief node directly from its members.
func nodeDelta(inst *osn.Instance, node beliefNode, u int) (float64, error) {
	ext := append(append([]int(nil), node.seq...), u)
	var num float64
	for _, wr := range node.members {
		before, err := BenefitOf(wr.R, node.seq)
		if err != nil {
			return 0, err
		}
		after, err := BenefitOf(wr.R, ext)
		if err != nil {
			return 0, err
		}
		num += float64(wr.P * (after - before))
	}
	return num / node.weight, nil
}
