package core

import (
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"

	"github.com/accu-sim/accu/internal/graph"
	"github.com/accu-sim/accu/internal/osn"
	"github.com/accu-sim/accu/internal/rng"
)

func TestMaxDegreeOrder(t *testing.T) {
	// Degrees: 1 has 3, 0 has 2, others 1.
	g := buildGraph(t, 4, [][2]int{{1, 0}, {1, 2}, {1, 3}, {0, 2}})
	p := uniformParams(4)
	inst, err := osn.NewInstance(g, p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(NewMaxDegree(), inst.FixedRealization(nil, nil), 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps[0].User != 1 {
		t.Errorf("first pick = %d, want hub 1", res.Steps[0].User)
	}
	if res.Steps[1].User != 0 {
		t.Errorf("second pick = %d, want 0", res.Steps[1].User)
	}
	// Tie between 2 and 3 breaks toward lower id.
	if res.Steps[2].User != 2 || res.Steps[3].User != 3 {
		t.Errorf("tie order = %d,%d, want 2,3", res.Steps[2].User, res.Steps[3].User)
	}
}

func TestDegreeOrderMatchesStableSort(t *testing.T) {
	r := rand.New(rand.NewPCG(5, 6))
	for _, c := range []struct{ n, tries int }{{0, 0}, {1, 0}, {5, 0}, {30, 40}, {200, 2000}, {500, 400}} {
		b := graph.NewBuilder(c.n)
		for i := 0; i < c.tries; i++ {
			// Squaring skews the endpoints toward low ids: a few hubs,
			// many ties, some isolated nodes.
			u := int(float64(c.n) * math.Pow(r.Float64(), 2))
			_, _ = b.AddEdge(u, r.IntN(c.n))
		}
		g := b.Freeze()
		want := identity(g.N())
		sort.SliceStable(want, func(i, j int) bool { return g.Degree(want[i]) > g.Degree(want[j]) })
		if got := degreeOrder(g); !slices.Equal(got, want) {
			t.Fatalf("n=%d: degreeOrder = %v, want %v", c.n, got, want)
		}
	}
}

func TestPageRankPicksHubFirst(t *testing.T) {
	g := buildGraph(t, 5, [][2]int{{0, 1}, {0, 2}, {0, 3}, {0, 4}})
	p := uniformParams(5)
	inst, err := osn.NewInstance(g, p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(NewPageRank(), inst.FixedRealization(nil, nil), 1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps[0].User != 0 {
		t.Errorf("first pick = %d, want star center", res.Steps[0].User)
	}
	if got := NewPageRank().Name(); got != "pagerank" {
		t.Errorf("name = %q", got)
	}
	if got := NewMaxDegree().Name(); got != "maxdegree" {
		t.Errorf("name = %q", got)
	}
}

func TestRandomCoversAllUsers(t *testing.T) {
	inst := potentialFixture(t)
	r := NewRandom(rng.NewSeed(5, 5))
	if r.Name() != "random" {
		t.Errorf("name = %q", r.Name())
	}
	res, err := Run(r, inst.FixedRealization(nil, nil), 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) != 4 {
		t.Fatalf("steps = %d, want all 4 users", len(res.Steps))
	}
	seen := map[int]bool{}
	for _, s := range res.Steps {
		seen[s.User] = true
	}
	if len(seen) != 4 {
		t.Error("random policy repeated a user")
	}
}

func TestRandomDeterministicPerSeed(t *testing.T) {
	inst := randomInstance(t, 400)
	re := inst.SampleRealization(rng.NewSeed(3, 3))
	r1, err := Run(NewRandom(rng.NewSeed(9, 9)), re, 20)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Run(NewRandom(rng.NewSeed(9, 9)), re, 20)
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.Steps {
		if r1.Steps[i].User != r2.Steps[i].User {
			t.Fatal("same seed produced different orders")
		}
	}
	r3, err := Run(NewRandom(rng.NewSeed(10, 10)), re, 20)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range r1.Steps {
		if r1.Steps[i].User != r3.Steps[i].User {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical orders (suspicious)")
	}
}

func TestABMDominatesBaselinesOnAverage(t *testing.T) {
	// Integration check of the paper's headline claim (Fig. 2 shape):
	// averaged over several realizations, ABM collects at least as much
	// benefit as every baseline.
	if testing.Short() {
		t.Skip("integration comparison")
	}
	inst := randomInstance(t, 500)
	const k, runs = 40, 12
	avg := func(mk func(i int) Policy) float64 {
		var total float64
		for i := 0; i < runs; i++ {
			re := inst.SampleRealization(rng.NewSeed(uint64(i), 77))
			res, err := Run(mk(i), re, k)
			if err != nil {
				t.Fatal(err)
			}
			total += res.Benefit
		}
		return total / runs
	}
	abmAvg := avg(func(int) Policy {
		a, err := NewABM(DefaultWeights())
		if err != nil {
			t.Fatal(err)
		}
		return a
	})
	maxdegAvg := avg(func(int) Policy { return NewMaxDegree() })
	prAvg := avg(func(int) Policy { return NewPageRank() })
	randAvg := avg(func(i int) Policy { return NewRandom(rng.NewSeed(uint64(i), 3)) })

	if abmAvg < maxdegAvg {
		t.Errorf("ABM %.1f below MaxDegree %.1f", abmAvg, maxdegAvg)
	}
	if abmAvg < prAvg {
		t.Errorf("ABM %.1f below PageRank %.1f", abmAvg, prAvg)
	}
	if abmAvg < randAvg {
		t.Errorf("ABM %.1f below Random %.1f", abmAvg, randAvg)
	}
}

// TestStaticRankReusesOrderPerGraph pins the per-network order cache:
// Init on the graph the order came from must not rank again, Init on a
// new graph must, and every attack selects exactly what a freshly built
// policy selects.
func TestStaticRankReusesOrderPerGraph(t *testing.T) {
	instA, instB := randomInstance(t, 800), randomInstance(t, 810)
	for _, mk := range []func() *StaticRank{NewMaxDegree, NewPageRank} {
		s := mk()
		ranks := 0
		rank := s.rank
		s.rank = func(g *graph.Graph) ([]int, error) {
			ranks++
			return rank(g)
		}
		for i, tc := range []struct {
			inst      *osn.Instance
			wantRanks int
		}{{instA, 1}, {instA, 1}, {instB, 2}, {instB, 2}, {instA, 3}} {
			re := tc.inst.SampleRealization(rng.NewSeed(uint64(i), 9))
			got, err := Run(s, re, 40)
			if err != nil {
				t.Fatal(err)
			}
			if ranks != tc.wantRanks {
				t.Fatalf("%s attack %d: rank ran %d times, want %d", s.Name(), i, ranks, tc.wantRanks)
			}
			want, err := Run(mk(), re, 40)
			if err != nil {
				t.Fatal(err)
			}
			if len(got.Steps) != len(want.Steps) {
				t.Fatalf("%s attack %d: %d steps reused vs %d fresh", s.Name(), i, len(got.Steps), len(want.Steps))
			}
			for j := range want.Steps {
				if got.Steps[j] != want.Steps[j] {
					t.Fatalf("%s attack %d step %d: reused %+v vs fresh %+v", s.Name(), i, j, got.Steps[j], want.Steps[j])
				}
			}
		}
	}
}
