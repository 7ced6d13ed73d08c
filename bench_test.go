package accu_test

// Benchmark harness: one benchmark per paper table/figure (regenerating
// the artifact at reduced scale each iteration) plus micro-benchmarks for
// the hot paths and the DESIGN.md ablations (lazy vs full ABM re-scoring,
// CSR merge vs brute-force mutual counting).
//
// Run with: go test -bench=. -benchmem

import (
	"context"
	"fmt"
	"testing"

	accu "github.com/accu-sim/accu"
)

// benchConfig is the reduced-scale experiment configuration used by the
// per-figure benchmarks.
func benchConfig() accu.ExperimentConfig {
	return accu.ExperimentConfig{
		Scale:       0.02,
		Networks:    1,
		Runs:        2,
		K:           40,
		NumCautious: 10,
		Datasets:    []string{"slashdot"},
		Seed:        accu.NewSeed(2019, 1243),
	}
}

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	cfg := benchConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rep, err := accu.RunExperiment(context.Background(), id, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if rep.Rendered == "" {
			b.Fatal("empty report")
		}
	}
}

func BenchmarkTable1Datasets(b *testing.B) { benchExperiment(b, "table1") }
func BenchmarkFig2Benefit(b *testing.B)    { benchExperiment(b, "fig2") }
func BenchmarkFig3Marginal(b *testing.B)   { benchExperiment(b, "fig3") }
func BenchmarkFig4WeightSweep(b *testing.B) {
	cfg := benchConfig()
	cfg.K = 25
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := accu.RunExperiment(context.Background(), "fig4", cfg); err != nil {
			b.Fatal(err)
		}
	}
}
func BenchmarkFig5Timing(b *testing.B) { benchExperiment(b, "fig5") }
func BenchmarkFig6Heatmap(b *testing.B) {
	cfg := benchConfig()
	cfg.K = 15
	cfg.Runs = 1
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := accu.RunExperiment(context.Background(), "fig6", cfg); err != nil {
			b.Fatal(err)
		}
	}
}
func BenchmarkFig7Heatmap(b *testing.B) {
	cfg := benchConfig()
	cfg.K = 15
	cfg.Runs = 1
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := accu.RunExperiment(context.Background(), "fig7", cfg); err != nil {
			b.Fatal(err)
		}
	}
}
func BenchmarkTheoremBound(b *testing.B) { benchExperiment(b, "thm1") }

// benchInstance builds a mid-size instance shared by the micro-benches.
func benchInstance(b *testing.B, scale float64) (*accu.Instance, *accu.Realization) {
	b.Helper()
	preset, err := accu.PresetByName("slashdot")
	if err != nil {
		b.Fatal(err)
	}
	generator, err := preset.Generator(scale)
	if err != nil {
		b.Fatal(err)
	}
	g, err := generator.Generate(accu.NewSeed(1, 2))
	if err != nil {
		b.Fatal(err)
	}
	setup := accu.DefaultSetup()
	setup.NumCautious = 20
	inst, err := setup.Build(g, accu.NewSeed(3, 4))
	if err != nil {
		b.Fatal(err)
	}
	return inst, inst.SampleRealization(accu.NewSeed(5, 6))
}

// BenchmarkABM times one 60-request ABM attack, policy construction,
// event-driven Init and every Observe included (DESIGN.md, "Event-driven
// potential").
func BenchmarkABM(b *testing.B) {
	_, re := benchInstance(b, 0.05)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pol, err := accu.NewABM(accu.DefaultWeights())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := accu.Run(pol, re, 60); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkObsOverhead quantifies the metrics layer's cost on the
// end-to-end hot path: the same ABM attack with instrumentation disabled
// (nil registry — the default for every experiment and benchmark, so
// BenchmarkTable1Datasets and friends measure exactly this path) and
// with a live registry attached to both the environment and the policy.
func BenchmarkObsOverhead(b *testing.B) {
	for _, mode := range []string{"disabled", "enabled"} {
		b.Run(mode, func(b *testing.B) {
			inst, re := benchInstance(b, 0.05)
			var reg *accu.Metrics
			if mode == "enabled" {
				reg = accu.NewMetrics()
				inst.Instrument(reg)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pol, err := accu.NewABM(accu.DefaultWeights(), accu.WithMetrics(reg))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := accu.Run(pol, re, 60); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkPotentialEval measures single-candidate potential evaluation.
func BenchmarkPotentialEval(b *testing.B) {
	inst, re := benchInstance(b, 0.05)
	st := accu.NewAttack(re)
	// Warm the state with a few acceptances so posteriors mix.
	for u := 0; u < inst.N() && st.Friends() < 5; u++ {
		if _, err := st.Request(u); err != nil {
			b.Fatal(err)
		}
	}
	w := accu.DefaultWeights()
	b.ReportAllocs()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += accu.Potential(st, (i%1000)+100, w)
	}
	_ = sink
}

// BenchmarkMutualCSRvsSet compares the CSR sorted-merge mutual-friend
// count against a map-based brute force (DESIGN.md ablation).
func BenchmarkMutualCSRvsSet(b *testing.B) {
	inst, _ := benchInstance(b, 0.05)
	g := inst.Graph()
	pairs := make([][2]int, 256)
	for i := range pairs {
		pairs[i] = [2]int{(i * 13) % g.N(), (i * 29) % g.N()}
	}
	b.Run("csr-merge", func(b *testing.B) {
		b.ReportAllocs()
		var sink int
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			sink += g.MutualCount(p[0], p[1])
		}
		_ = sink
	})
	b.Run("set-intersect", func(b *testing.B) {
		b.ReportAllocs()
		var sink int
		for i := 0; i < b.N; i++ {
			p := pairs[i%len(pairs)]
			set := make(map[int32]bool, g.Degree(p[0]))
			for _, v := range g.Neighbors(p[0]) {
				set[v] = true
			}
			for _, v := range g.Neighbors(p[1]) {
				if set[v] {
					sink++
				}
			}
		}
		_ = sink
	})
}

// BenchmarkGenerators measures network-generation throughput per preset.
func BenchmarkGenerators(b *testing.B) {
	for _, name := range accu.PresetNames() {
		b.Run(name, func(b *testing.B) {
			preset, err := accu.PresetByName(name)
			if err != nil {
				b.Fatal(err)
			}
			generator, err := preset.Generator(0.02)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				g, err := generator.Generate(accu.NewSeed(uint64(i), 1))
				if err != nil {
					b.Fatal(err)
				}
				if g.N() == 0 {
					b.Fatal("empty graph")
				}
			}
		})
	}
}

// BenchmarkRealizationSample measures ground-truth sampling.
func BenchmarkRealizationSample(b *testing.B) {
	inst, _ := benchInstance(b, 0.05)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		re := inst.SampleRealization(accu.NewSeed(uint64(i), 7))
		if re == nil {
			b.Fatal("nil realization")
		}
	}
}

// BenchmarkNetworkBuild times the three per-network stages of the §IV-A
// protocol separately on each preset at scale 0.02: generating the graph,
// dressing it into an instance (Setup.Build) and sampling one
// realization. facebook's 80-node stand-in has room for one cautious user
// only; the others use ten.
func BenchmarkNetworkBuild(b *testing.B) {
	for _, name := range accu.PresetNames() {
		preset, err := accu.PresetByName(name)
		if err != nil {
			b.Fatal(err)
		}
		generator, err := preset.Generator(0.02)
		if err != nil {
			b.Fatal(err)
		}
		setup := accu.DefaultSetup()
		setup.NumCautious = 10
		if name == "facebook" {
			setup.NumCautious = 1
		}
		g, err := generator.Generate(accu.NewSeed(1, 2))
		if err != nil {
			b.Fatal(err)
		}
		inst, err := setup.Build(g, accu.NewSeed(3, 4))
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name+"/generate", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := generator.Generate(accu.NewSeed(uint64(i), 2)); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/setup", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := setup.Build(g, accu.NewSeed(uint64(i), 4)); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(name+"/sample", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				inst.SampleRealization(accu.NewSeed(uint64(i), 6))
			}
		})
	}
}

// BenchmarkMaxDegreeInit times the MaxDegree baseline's per-network rank
// (a fresh policy each iteration, so the order is never reused).
func BenchmarkMaxDegreeInit(b *testing.B) {
	_, re := benchInstance(b, 0.05)
	st := accu.NewAttack(re)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := accu.NewMaxDegree().Init(st); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPageRank measures the baseline ranking computation.
func BenchmarkPageRank(b *testing.B) {
	inst, _ := benchInstance(b, 0.05)
	g := inst.Graph()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scores, err := accu.PageRankScores(g)
		if err != nil {
			b.Fatal(err)
		}
		if len(scores) != g.N() {
			b.Fatal("bad scores")
		}
	}
}

// BenchmarkPolicies measures a full attack per policy on the same
// realization (Fig. 2's inner loop).
func BenchmarkPolicies(b *testing.B) {
	inst, re := benchInstance(b, 0.05)
	_ = inst
	mk := map[string]func() (accu.Policy, error){
		"abm": func() (accu.Policy, error) { return accu.NewABM(accu.DefaultWeights()) },
		"greedy": func() (accu.Policy, error) {
			return accu.NewPureGreedy(), nil
		},
		"maxdegree": func() (accu.Policy, error) { return accu.NewMaxDegree(), nil },
		"pagerank":  func() (accu.Policy, error) { return accu.NewPageRank(), nil },
		"random":    func() (accu.Policy, error) { return accu.NewRandom(accu.NewSeed(1, 1)), nil },
	}
	for _, name := range []string{"abm", "greedy", "maxdegree", "pagerank", "random"} {
		factory := mk[name]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pol, err := factory()
				if err != nil {
					b.Fatal(err)
				}
				if _, err := accu.Run(pol, re, 60); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMonteCarloWorkers measures runner scaling with worker count.
func BenchmarkMonteCarloWorkers(b *testing.B) {
	preset, err := accu.PresetByName("slashdot")
	if err != nil {
		b.Fatal(err)
	}
	generator, err := preset.Generator(0.02)
	if err != nil {
		b.Fatal(err)
	}
	setup := accu.DefaultSetup()
	setup.NumCautious = 10
	factories, err := accu.DefaultFactories(accu.DefaultWeights())
	if err != nil {
		b.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				protocol := accu.Protocol{
					Gen:      generator,
					Setup:    setup,
					Networks: 4,
					Runs:     1,
					K:        20,
					Seed:     accu.NewSeed(9, 9),
					Workers:  workers,
				}
				n := 0
				err := accu.MonteCarlo(context.Background(), protocol, factories, func(accu.Record) { n++ })
				if err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
