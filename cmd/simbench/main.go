// Command simbench measures the Monte-Carlo cell scheduler's throughput
// and writes the results as machine-readable JSON (BENCH_sim.json), so
// the scheduler's performance trajectory can be diffed across commits.
//
// For every (grid shape × worker count) combination it reports cells/sec
// (a cell is one policy execution), heap allocations per cell, and the
// engine's own worker-utilisation reading. The default shapes pin the
// two interesting regimes: Networks=1 (the "one real dataset, many
// repetitions" configuration the pre-cell-scheduler engine serialized
// onto a single worker) and Networks=16 (a wide grid).
//
// Usage:
//
//	simbench                      # defaults, writes BENCH_sim.json
//	simbench -quick -out out.json # CI smoke sizing
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"time"

	accu "github.com/accu-sim/accu"
	"github.com/accu-sim/accu/internal/sim/fault"
)

// shape is one Monte-Carlo grid configuration to measure.
type shape struct {
	Networks, Runs int
}

// result is the measurement of one (shape, workers) combination.
type result struct {
	Networks        int `json:"networks"`
	Runs            int `json:"runs"`
	Policies        int `json:"policies"`
	K               int `json:"k"`
	Workers         int `json:"workers"`
	ResolvedWorkers int `json:"resolvedWorkers"`
	// Oversubscribed flags a worker count above GOMAXPROCS: the workers
	// time-slice one set of cores, so the row measures scheduling overhead,
	// not parallel speedup. Such rows must not be read as scaling data.
	Oversubscribed bool    `json:"oversubscribed,omitempty"`
	Cells          int     `json:"cells"`
	FailedCells    int     `json:"failedCells,omitempty"`
	Seconds        float64 `json:"seconds"`
	CellsPerSec    float64 `json:"cellsPerSec"`
	AllocsPerCell  float64 `json:"allocsPerCell"`
	UtilizationPct int64   `json:"utilizationPct"`
}

// output is the full benchmark report.
type output struct {
	Preset    string  `json:"preset"`
	Scale     float64 `json:"scale"`
	GoVersion string  `json:"goVersion"`
	// NumCPU and GoMaxProcs record the machine the numbers came from;
	// throughput rows are only comparable between reports with the same
	// values.
	NumCPU     int      `json:"numCpu"`
	GoMaxProcs int      `json:"goMaxProcs"`
	Generated  string   `json:"generated"`
	Results    []result `json:"results"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "simbench:", err)
		os.Exit(1)
	}
}

// config is the parsed flag set.
type config struct {
	preset   string
	scale    float64
	k        int
	cautious int
	seed     uint64
	out      string
	shapes   []shape
	workers  []int
	chaos    bool
	strict   bool
}

// parseFlags resolves the command line into a config.
func parseFlags(args []string) (config, error) {
	fs := flag.NewFlagSet("simbench", flag.ContinueOnError)
	var (
		preset   = fs.String("preset", "slashdot", "dataset preset to generate")
		scale    = fs.Float64("scale", 0.02, "network scale factor in (0, 1]")
		k        = fs.Int("k", 30, "friend-request budget per cell")
		cautious = fs.Int("cautious", 10, "cautious users per network")
		seed     = fs.Uint64("seed", 20191243, "root random seed")
		out      = fs.String("out", "BENCH_sim.json", "output file")
		shapes   = fs.String("shapes", "1x30,16x2", "comma-separated networksxruns grid shapes")
		workers  = fs.String("workers", "1,4,8", "comma-separated worker counts")
		quick    = fs.Bool("quick", false, "CI smoke sizing (tiny grids, overrides -shapes)")
		chaos    = fs.Bool("chaos", false, "inject seeded faults (failing/stalling cells) and run with continue-on-error + retries")
		strict   = fs.Bool("strict", false, "refuse worker counts above GOMAXPROCS instead of annotating them")
	)
	if err := fs.Parse(args); err != nil {
		return config{}, err
	}
	c := config{preset: *preset, scale: *scale, k: *k, cautious: *cautious, seed: *seed, out: *out, chaos: *chaos, strict: *strict}
	if *quick {
		*shapes = "1x6,4x2"
		c.k = 10
	}
	for _, s := range strings.Split(*shapes, ",") {
		nx, rx, ok := strings.Cut(strings.TrimSpace(s), "x")
		n, err1 := strconv.Atoi(nx)
		r, err2 := strconv.Atoi(rx)
		if !ok || err1 != nil || err2 != nil || n <= 0 || r <= 0 {
			return config{}, fmt.Errorf("bad shape %q (want e.g. 1x30)", s)
		}
		c.shapes = append(c.shapes, shape{Networks: n, Runs: r})
	}
	for _, s := range strings.Split(*workers, ",") {
		w, err := strconv.Atoi(strings.TrimSpace(s))
		if err != nil || w <= 0 {
			return config{}, fmt.Errorf("bad worker count %q", s)
		}
		c.workers = append(c.workers, w)
	}
	return c, nil
}

func run(args []string, logw *os.File) error {
	cfg, err := parseFlags(args)
	if err != nil {
		return err
	}

	preset, err := accu.PresetByName(cfg.preset)
	if err != nil {
		return err
	}
	generator, err := preset.Generator(cfg.scale)
	if err != nil {
		return err
	}
	setup := accu.DefaultSetup()
	setup.NumCautious = cfg.cautious
	factories, err := accu.DefaultFactories(accu.DefaultWeights())
	if err != nil {
		return err
	}
	if cfg.chaos {
		// Seeded fault injection: a few percent of networks refuse to
		// generate, a tenth of policy cells fail at init, a few stall
		// briefly. The grid must still complete (ContinueOnError) and
		// transient policy faults get one reseeded retry.
		generator = fault.Generator{Inner: generator, Rates: fault.Rates{Fail: 0.02}}
		for i := range factories {
			factories[i] = fault.Factory(factories[i], fault.Rates{
				Fail:     0.10,
				Stall:    0.05,
				StallFor: 2 * time.Millisecond,
			})
		}
	}

	maxProcs := runtime.GOMAXPROCS(0)
	if cfg.strict {
		for _, w := range cfg.workers {
			if w > maxProcs {
				return fmt.Errorf("workers=%d exceeds GOMAXPROCS=%d: the row would measure time-slicing, not parallelism (drop -strict to annotate instead)", w, maxProcs)
			}
		}
	}

	out := output{
		Preset:     cfg.preset,
		Scale:      cfg.scale,
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: maxProcs,
		Generated:  time.Now().UTC().Format(time.RFC3339),
	}
	for _, sh := range cfg.shapes {
		for _, workers := range cfg.workers {
			protocol := accu.Protocol{
				Gen:      generator,
				Setup:    setup,
				Networks: sh.Networks,
				Runs:     sh.Runs,
				K:        cfg.k,
				Seed:     accu.NewSeed(cfg.seed, cfg.seed^0x9e3779b97f4a7c15),
				Workers:  workers,
				Metrics:  accu.NewMetrics(),
			}
			if cfg.chaos {
				protocol.ContinueOnError = true
				protocol.Retries = 1
			}
			r, err := measure(protocol, factories)
			if err != nil {
				return fmt.Errorf("networks=%d runs=%d workers=%d: %w", sh.Networks, sh.Runs, workers, err)
			}
			if workers > maxProcs {
				r.Oversubscribed = true
				fmt.Fprintf(os.Stderr, "simbench: WARNING: workers=%d > GOMAXPROCS=%d — row annotated oversubscribed; its throughput measures time-slicing, not parallel scaling\n",
					workers, maxProcs)
			}
			fmt.Fprintf(logw, "networks=%-3d runs=%-3d workers=%-2d (resolved %d): %8.1f cells/sec, %7.1f allocs/cell, util %d%%, %d failed cells\n",
				r.Networks, r.Runs, r.Workers, r.ResolvedWorkers, r.CellsPerSec, r.AllocsPerCell, r.UtilizationPct, r.FailedCells)
			out.Results = append(out.Results, r)
		}
	}

	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(cfg.out, data, 0o644); err != nil {
		return fmt.Errorf("write %s: %w", cfg.out, err)
	}
	fmt.Fprintf(logw, "wrote %s\n", cfg.out)
	return nil
}

// measure runs one protocol and derives the throughput numbers from wall
// time, allocation counters and the engine's own metrics.
func measure(p accu.Protocol, factories []accu.PolicyFactory) (result, error) {
	resolved, _ := p.ResolveWorkers()
	cells := 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	err := accu.MonteCarlo(context.Background(), p, factories, func(accu.Record) { cells++ })
	wall := time.Since(start)
	runtime.ReadMemStats(&after)
	failed := 0
	var fsum *accu.FailureSummary
	if p.ContinueOnError && errors.As(err, &fsum) {
		// Chaos mode: degraded-but-complete is the expected outcome.
		failed = len(fsum.Failures)
		err = nil
	}
	if err != nil {
		return result{}, err
	}
	secs := wall.Seconds()
	r := result{
		Networks:        p.Networks,
		Runs:            p.Runs,
		Policies:        len(factories),
		K:               p.K,
		Workers:         p.Workers,
		ResolvedWorkers: resolved,
		Cells:           cells,
		FailedCells:     failed,
		Seconds:         secs,
		UtilizationPct:  p.Metrics.Histogram("sim.worker_utilization_pct").Max(),
	}
	if secs > 0 {
		r.CellsPerSec = float64(cells) / secs
	}
	if cells > 0 {
		r.AllocsPerCell = float64(after.Mallocs-before.Mallocs) / float64(cells)
	}
	return r, nil
}
