package core

import (
	"testing"

	"github.com/accu-sim/accu/internal/osn"
	"github.com/accu-sim/accu/internal/rng"
)

func TestRunMultiSingleBotMatchesABM(t *testing.T) {
	// One bot with the O(N)-scan runner must reproduce the sequential
	// ABM (both are exact greedy maximizers of the same potential).
	inst := randomInstance(t, 1100)
	re := inst.SampleRealization(rng.NewSeed(11, 11))
	const k = 40
	multi, err := RunMulti(re, 1, k, DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	abm, err := NewABM(DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	single, err := Run(abm, re, k)
	if err != nil {
		t.Fatal(err)
	}
	if multi.Benefit != single.Benefit {
		t.Errorf("benefits differ: multi %v vs single %v", multi.Benefit, single.Benefit)
	}
	for i := range single.Steps {
		if multi.Steps[i].User != single.Steps[i].User {
			t.Fatalf("step %d: multi picked %d, single picked %d",
				i, multi.Steps[i].User, single.Steps[i].User)
		}
	}
}

func TestRunMultiBudgetSplit(t *testing.T) {
	inst := randomInstance(t, 1200)
	re := inst.SampleRealization(rng.NewSeed(12, 12))
	res, err := RunMulti(re, 4, 40, DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) != 40 {
		t.Fatalf("steps = %d", len(res.Steps))
	}
	counts := map[int]int{}
	for _, s := range res.Steps {
		counts[s.Bot]++
	}
	for b := 0; b < 4; b++ {
		if counts[b] != 10 {
			t.Errorf("bot %d sent %d requests, want 10", b, counts[b])
		}
	}
	if res.Bots != 4 || res.Benefit <= 0 {
		t.Errorf("result: %+v", res)
	}
}

func TestRunMultiNoDuplicateFriendSpending(t *testing.T) {
	inst := randomInstance(t, 1300)
	re := inst.SampleRealization(rng.NewSeed(13, 13))
	res, err := RunMulti(re, 3, 45, DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	// No user is requested after the collective already befriended it.
	friends := map[int]bool{}
	for _, s := range res.Steps {
		if friends[s.User] {
			t.Fatalf("user %d requested after being befriended", s.User)
		}
		if s.Accepted {
			friends[s.User] = true
		}
	}
}

func TestRunMultiValidation(t *testing.T) {
	inst := potentialFixture(t)
	re := inst.FixedRealization(nil, nil)
	if _, err := RunMulti(re, 2, 0, DefaultWeights()); err == nil {
		t.Error("k=0: want error")
	}
	if _, err := RunMulti(re, 0, 5, DefaultWeights()); err == nil {
		t.Error("bots=0: want error")
	}
	if _, err := RunMulti(re, 2, 5, Weights{WD: -1}); err == nil {
		t.Error("bad weights: want error")
	}
}

func TestRunMultiMoreBotsCrackCautiousSlower(t *testing.T) {
	// Star of reckless users around a cautious hub with θ=3: one bot
	// cracks it with budget 4; four bots sharing the same budget cannot
	// (each bot has at most 1 mutual friend).
	inst := thresholdStar(t, 9, 3)
	re := inst.FixedRealization(nil, nil)
	one, err := RunMulti(re, 1, 4, DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	four, err := RunMulti(re, 4, 4, DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	if one.CautiousFriends != 1 {
		t.Errorf("single bot cautious friends = %d, want 1", one.CautiousFriends)
	}
	if four.CautiousFriends != 0 {
		t.Errorf("four bots cautious friends = %d, want 0 (thresholds are per-bot)", four.CautiousFriends)
	}
}

// thresholdStar builds n-1 reckless users all adjacent to cautious hub
// n-1 with threshold theta.
func thresholdStar(t *testing.T, n, theta int) *osn.Instance {
	t.Helper()
	edges := make([][2]int, 0, n-1)
	hub := n - 1
	for u := 0; u < hub; u++ {
		edges = append(edges, [2]int{u, hub})
	}
	g := buildGraph(t, n, edges)
	p := uniformParams(n)
	p.Kind[hub] = osn.Cautious
	p.AcceptProb[hub] = 0
	p.Theta[hub] = theta
	p.BFriend[hub] = 50
	inst, err := osn.NewInstance(g, p)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}
