package core

import (
	"fmt"
	"testing"

	"github.com/accu-sim/accu/internal/graph"
	"github.com/accu-sim/accu/internal/obs"
	"github.com/accu-sim/accu/internal/osn"
	"github.com/accu-sim/accu/internal/rng"
)

// randomInstance builds a moderately sized random instance with cautious
// users for integration-style tests.
func randomInstance(t *testing.T, seed uint64) *osn.Instance {
	t.Helper()
	b := graph.NewBuilder(300)
	r := rng.NewSeed(seed, seed+1).Rand()
	for b.M() < 3000 {
		if _, err := b.AddEdge(r.IntN(300), r.IntN(300)); err != nil {
			t.Fatal(err)
		}
	}
	g := b.Freeze()
	s := osn.DefaultSetup()
	s.NumCautious = 8
	inst, err := s.Build(g, rng.NewSeed(seed+2, seed+3))
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestNewABMValidation(t *testing.T) {
	if _, err := NewABM(Weights{WD: -1, WI: 1}); err == nil {
		t.Error("negative weight: want error")
	}
	a, err := NewABM(DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	if a.Weights() != DefaultWeights() {
		t.Error("weights not stored")
	}
}

func TestABMName(t *testing.T) {
	a, err := NewABM(DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	if a.Name() != "abm(wD=0.50,wI=0.50)" {
		t.Errorf("name = %q", a.Name())
	}
	if NewPureGreedy().Name() != "greedy" {
		t.Errorf("pure greedy name = %q", NewPureGreedy().Name())
	}
}

func TestABMSelectsHighestPotential(t *testing.T) {
	inst := potentialFixture(t)
	re := inst.FixedRealization(nil, nil)
	a, err := NewABM(DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	st := osn.NewState(re)
	if err := a.Init(st); err != nil {
		t.Fatal(err)
	}
	u, ok := a.SelectNext(st)
	if !ok {
		t.Fatal("no candidate")
	}
	// Node 1 has by far the highest potential (hub next to the cautious
	// user).
	if u != 1 {
		t.Errorf("first pick = %d, want 1", u)
	}
}

func TestABMRunTrace(t *testing.T) {
	inst := potentialFixture(t)
	re := inst.FixedRealization(nil, nil)
	a, err := NewABM(DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(a, re, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) != 4 {
		t.Fatalf("steps = %d", len(res.Steps))
	}
	// All four users requested exactly once.
	seen := map[int]bool{}
	for _, s := range res.Steps {
		if seen[s.User] {
			t.Fatalf("user %d requested twice", s.User)
		}
		seen[s.User] = true
	}
	// Cumulative accounting is monotone and consistent.
	prev := 0.0
	for i, s := range res.Steps {
		if s.BenefitAfter < prev {
			t.Errorf("step %d: benefit decreased %v -> %v", i, prev, s.BenefitAfter)
		}
		prev = s.BenefitAfter
	}
	if res.Benefit != res.Steps[len(res.Steps)-1].BenefitAfter {
		t.Error("final benefit mismatch")
	}
	// With everything accepted and θ(3)=2 but deg(3)=1, the cautious
	// user can never be befriended; ABM must still befriend 0,1,2.
	if res.Friends != 3 || res.CautiousFriends != 0 {
		t.Errorf("friends=%d cautious=%d", res.Friends, res.CautiousFriends)
	}
}

func TestABMBefriendsCautiousViaThreshold(t *testing.T) {
	// Star of reckless users around a cautious hub with θ=2: ABM must
	// first befriend two reckless neighbors, then the cautious user.
	g := buildGraph(t, 4, [][2]int{{3, 0}, {3, 1}, {3, 2}, {0, 1}})
	p := uniformParams(4)
	p.Kind[3] = osn.Cautious
	p.AcceptProb[3] = 0
	p.Theta[3] = 2
	p.BFriend[3] = 50
	inst, err := osn.NewInstance(g, p)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewABM(DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(a, inst.FixedRealization(nil, nil), 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.CautiousFriends != 1 {
		t.Fatalf("cautious friends = %d; steps %+v", res.CautiousFriends, res.Steps)
	}
	// The cautious user must be requested only after the threshold held.
	for i, s := range res.Steps {
		if s.User == 3 {
			if !s.Accepted {
				t.Errorf("cautious request at step %d rejected — wasted request", i)
			}
			if i < 2 {
				t.Errorf("cautious requested too early (step %d)", i)
			}
		}
	}
}

// oracleInstance is randomInstance with more cautious users, under the
// deterministic or the soft (QLow/QHigh) cautious model.
func oracleInstance(t *testing.T, seed uint64, soft bool) *osn.Instance {
	t.Helper()
	b := graph.NewBuilder(200)
	r := rng.NewSeed(seed, seed+1).Rand()
	for b.M() < 1500 {
		if _, err := b.AddEdge(r.IntN(200), r.IntN(200)); err != nil {
			t.Fatal(err)
		}
	}
	s := osn.DefaultSetup()
	s.NumCautious = 25
	if soft {
		s.QLowCautious, s.QHighCautious = 0.2, 0.9
	}
	inst, err := s.Build(b.Freeze(), rng.NewSeed(seed+2, seed+3))
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// TestABMScoresMatchPotential is the oracle for the event-driven
// potential: after every Observe (batch size 1) or every batch, ABM's
// stored score for each unrequested user must equal a from-scratch
// Potential exactly, and a sequential pick must be the exact greedy
// maximizer (highest potential, lowest id on ties).
func TestABMScoresMatchPotential(t *testing.T) {
	weights := []Weights{DefaultWeights(), {WD: 1, WI: 0}, {WD: 0, WI: 1}, {WD: 0.3, WI: 0.9}}
	for seed := uint64(0); seed < 6; seed++ {
		for _, soft := range []bool{false, true} {
			inst := oracleInstance(t, 700+seed, soft)
			re := inst.SampleRealization(rng.NewSeed(seed, 43))
			for _, w := range weights {
				for _, batch := range []int{1, 3, 7} {
					checkABMOracle(t, re, w, batch, fmt.Sprintf("seed %d soft %v w %+v batch %d", seed, soft, w, batch))
				}
			}
		}
	}
}

func checkABMOracle(t *testing.T, re *osn.Realization, w Weights, batch int, label string) {
	t.Helper()
	a, err := NewABM(w)
	if err != nil {
		t.Fatal(err)
	}
	st := osn.NewState(re)
	if err := a.Init(st); err != nil {
		t.Fatal(err)
	}
	n := st.Instance().N()
	check := func(when string) {
		t.Helper()
		for u := 0; u < n; u++ {
			if st.Requested(u) {
				continue
			}
			if got, want := a.scores[u], Potential(st, u, w); got != want {
				t.Fatalf("%s, %s: score(%d) = %v, Potential = %v", label, when, u, got, want)
			}
		}
	}
	check("after Init")
	accepted := 0
	for sent := 0; sent < 80; {
		users := a.SelectBatch(st, batch)
		if len(users) == 0 {
			break
		}
		if batch == 1 {
			best := -1
			for u := 0; u < n; u++ {
				if !st.Requested(u) && (best < 0 || Potential(st, u, w) > Potential(st, best, w)) {
					best = u
				}
			}
			if users[0] != best {
				t.Fatalf("%s, request %d: picked %d, greedy maximizer is %d", label, sent, users[0], best)
			}
		}
		outs, err := st.RequestBatch(users)
		if err != nil {
			t.Fatal(err)
		}
		for _, out := range outs {
			a.Observe(st, out)
			if out.Accepted {
				accepted++
			}
		}
		sent += len(users)
		check(fmt.Sprintf("after request %d", sent))
	}
	if accepted == 0 {
		t.Fatalf("%s: no request accepted — the oracle saw no updates", label)
	}
}

func TestABMDeterministic(t *testing.T) {
	inst := randomInstance(t, 200)
	re := inst.SampleRealization(rng.NewSeed(7, 7))
	run := func() *Result {
		a, err := NewABM(DefaultWeights())
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(a, re, 50)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	r1, r2 := run(), run()
	for i := range r1.Steps {
		if r1.Steps[i].User != r2.Steps[i].User {
			t.Fatalf("step %d: %d vs %d", i, r1.Steps[i].User, r2.Steps[i].User)
		}
	}
}

func TestABMPolicyReusableAcrossRuns(t *testing.T) {
	// The same policy value must be re-initializable for a new attack.
	inst := randomInstance(t, 300)
	a, err := NewABM(DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	re1 := inst.SampleRealization(rng.NewSeed(1, 1))
	re2 := inst.SampleRealization(rng.NewSeed(2, 2))
	res1, err := Run(a, re1, 30)
	if err != nil {
		t.Fatal(err)
	}
	res1b, err := Run(a, re1, 30)
	if err != nil {
		t.Fatal(err)
	}
	if res1.Benefit != res1b.Benefit {
		t.Error("re-running the same realization changed the result")
	}
	if _, err := Run(a, re2, 30); err != nil {
		t.Fatal(err)
	}
}

// TestABMHeapCompactionBoundsGrowth pins the O(N) heap bound: an attack
// that requests every user (each acceptance pushes a fresh entry for
// every touched candidate whose score changed) must never grow the
// potential heap past the compaction threshold, and compaction must
// actually fire.
func TestABMHeapCompactionBoundsGrowth(t *testing.T) {
	inst := randomInstance(t, 400)
	n := inst.N()
	re := inst.SampleRealization(rng.NewSeed(11, 12))
	reg := obs.New()
	a, err := NewABM(DefaultWeights(), WithMetrics(reg))
	if err != nil {
		t.Fatal(err)
	}
	st := osn.NewState(re)
	if err := a.Init(st); err != nil {
		t.Fatal(err)
	}
	bound := 3*n + compactSlack
	for i := 0; i < n; i++ {
		u, ok := a.SelectNext(st)
		if !ok {
			break
		}
		out, err := st.Request(u)
		if err != nil {
			t.Fatal(err)
		}
		a.Observe(st, out)
		if got := a.pq.Len(); got > bound {
			t.Fatalf("after request %d: heap length %d exceeds O(N) bound %d", i, got, bound)
		}
	}
	if got := reg.Counter("abm.heap_compactions").Value(); got == 0 {
		t.Fatal("no compaction fired — the growth bound was never stressed")
	}
}

// TestReusableReseedMatchesFresh pins the Reusable contract the cell
// scheduler relies on: Reseed(seed) + Init must reproduce a freshly
// constructed policy with that seed, bit for bit, for every shipped
// policy — including the seed-dependent Random baseline.
func TestReusableReseedMatchesFresh(t *testing.T) {
	inst := randomInstance(t, 500)
	re1 := inst.SampleRealization(rng.NewSeed(21, 22))
	re2 := inst.SampleRealization(rng.NewSeed(23, 24))
	s1, s2 := rng.NewSeed(31, 32), rng.NewSeed(33, 34)
	mk := map[string]func(seed rng.Seed) Reusable{
		"abm": func(rng.Seed) Reusable {
			a, err := NewABM(DefaultWeights())
			if err != nil {
				t.Fatal(err)
			}
			return a
		},
		"maxdegree": func(rng.Seed) Reusable { return NewMaxDegree() },
		"pagerank":  func(rng.Seed) Reusable { return NewPageRank() },
		"random":    func(seed rng.Seed) Reusable { return NewRandom(seed) },
	}
	for name, factory := range mk {
		fresh, err := Run(factory(s2), re2, 40)
		if err != nil {
			t.Fatalf("%s fresh: %v", name, err)
		}
		reused := factory(s1)
		if _, err := Run(reused, re1, 40); err != nil {
			t.Fatalf("%s warmup: %v", name, err)
		}
		reused.Reseed(s2)
		got, err := Run(reused, re2, 40)
		if err != nil {
			t.Fatalf("%s reused: %v", name, err)
		}
		if len(got.Steps) != len(fresh.Steps) {
			t.Fatalf("%s: %d steps reused vs %d fresh", name, len(got.Steps), len(fresh.Steps))
		}
		for i := range got.Steps {
			if got.Steps[i] != fresh.Steps[i] {
				t.Fatalf("%s step %d: reused %+v vs fresh %+v", name, i, got.Steps[i], fresh.Steps[i])
			}
		}
		if got.Benefit != fresh.Benefit {
			t.Fatalf("%s: benefit %v reused vs %v fresh", name, got.Benefit, fresh.Benefit)
		}
	}
}

// TestRunnerPoolsStateAcrossRuns checks a Runner's pooled state yields
// the same results as independent Run calls.
func TestRunnerPoolsStateAcrossRuns(t *testing.T) {
	inst := randomInstance(t, 600)
	var r Runner
	for i := 0; i < 3; i++ {
		re := inst.SampleRealization(rng.NewSeed(uint64(40+i), uint64(50+i)))
		a, err := NewABM(DefaultWeights())
		if err != nil {
			t.Fatal(err)
		}
		pooled, err := r.Run(a, re, 30)
		if err != nil {
			t.Fatal(err)
		}
		plain, err := Run(a, re, 30)
		if err != nil {
			t.Fatal(err)
		}
		if pooled.Benefit != plain.Benefit || pooled.Friends != plain.Friends {
			t.Fatalf("run %d: pooled (%v, %d) vs plain (%v, %d)",
				i, pooled.Benefit, pooled.Friends, plain.Benefit, plain.Friends)
		}
	}
}

func TestRunBudgetValidation(t *testing.T) {
	inst := potentialFixture(t)
	a, err := NewABM(DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(a, inst.FixedRealization(nil, nil), 0); err == nil {
		t.Error("k=0: want error")
	}
	if _, err := Run(a, inst.FixedRealization(nil, nil), -3); err == nil {
		t.Error("k<0: want error")
	}
}

func TestRunExhaustsCandidates(t *testing.T) {
	inst := potentialFixture(t)
	a, err := NewABM(DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	// Budget exceeds the user count: the run stops after 4 requests.
	res, err := Run(a, inst.FixedRealization(nil, nil), 100)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) != 4 {
		t.Errorf("steps = %d, want 4", len(res.Steps))
	}
}
