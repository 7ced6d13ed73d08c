package main

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"github.com/accu-sim/accu/internal/core"
	"github.com/accu-sim/accu/internal/osn"
	"github.com/accu-sim/accu/internal/rng"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n      int
		p      float64
		beyond int
		ok     bool
	}{
		{n: 19, ok: false},
		{n: 20, p: 50, beyond: 10, ok: true},
		{n: 99, p: 75, beyond: 24, ok: true},
		{n: 100, p: 90, beyond: 10, ok: true},
		{n: 999, p: 90, beyond: 99, ok: true},
		{n: 1000, p: 99, beyond: 10, ok: true},
		{n: 10000, p: 99.9, beyond: 10, ok: true},
	} {
		p, beyond, ok := tailPercentile(tc.n)
		if p != tc.p || beyond != tc.beyond || ok != tc.ok {
			t.Errorf("tailPercentile(%d) = p%g, %d beyond, %v; want p%g, %d beyond, %v", tc.n, p, beyond, ok, tc.p, tc.beyond, tc.ok)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	if got := percentile(xs, 90); got != 90 {
		t.Errorf("p90 of 1..100 = %v, want 90", got)
	}
	if got := median(xs); got != 50.5 {
		t.Errorf("median of 1..100 = %v, want 50.5", got)
	}
	if xs[0] != 100 {
		t.Error("percentile sorted its input in place")
	}
}

// TestErrorRateCountsRefusedAndFailedAsMissed sends responses through
// the benchmark's middleware: a refusal (429) or a failure (500) is
// attempted and missed, like a lost cell.
func TestErrorRateCountsRefusedAndFailedAsMissed(t *testing.T) {
	var tl tally
	var rec atomic.Pointer[recorder]
	codes := []int{http.StatusOK, http.StatusCreated, http.StatusTooManyRequests, http.StatusInternalServerError}
	for _, code := range codes {
		h := middleware(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) { w.WriteHeader(code) }), &tl, &rec, servRoute)
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/healthz", nil))
	}
	tl.ops(6, 1) // six cells attempted, one never delivered
	if a, f := tl.attempted.Load(), tl.failed.Load(); a != 10 || f != 3 {
		t.Fatalf("attempted %d failed %d, want 10 and 3", a, f)
	}
	if got := tl.errorRate(); got != 0.3 {
		t.Errorf("error rate %v, want 0.3", got)
	}
	var empty tally
	if got := empty.errorRate(); got != 0 {
		t.Errorf("error rate with no operations = %v, want 0", got)
	}
}

func TestSelfTimeWithOverlappingChildren(t *testing.T) {
	parent := span{start: 0, end: 100}
	children := []span{
		{start: 20, end: 50},   // overlaps the next one
		{start: 10, end: 30},   // covered together: [10, 50)
		{start: 40, end: 45},   // nested inside the union
		{start: 90, end: 120},  // reaches past the parent: [90, 100)
		{start: -5, end: 2},    // starts before the parent: [0, 2)
		{start: 200, end: 300}, // outside the parent
	}
	if got := selfTime(parent, children); got != 100-40-10-2 {
		t.Errorf("selfTime = %d, want %d", got, 100-40-10-2)
	}
	if got := selfTime(parent, nil); got != 100 {
		t.Errorf("selfTime without children = %d, want 100", got)
	}
	// selfTimes finds the children through their parent ids.
	parent.id, parent.name = 1, "job"
	spans := []span{parent, {id: 2, parent: 1, name: "a", start: 10, end: 30}, {id: 3, parent: 1, name: "a", start: 20, end: 60}}
	for _, m := range selfTimes(spans) {
		if want := map[string]float64{"job": secs(50), "a": secs(60)}[m.name]; m.value != want {
			t.Errorf("selfTimes[%s] = %v, want %v", m.name, m.value, want)
		}
	}
}

// plainPolicy implements neither optional interface.
type plainPolicy struct{}

func (plainPolicy) Name() string                          { return "plain" }
func (plainPolicy) Init(*osn.State) error                 { return nil }
func (plainPolicy) SelectNext(*osn.State) (int, bool)     { return 0, false }
func (plainPolicy) Observe(*osn.State, osn.Outcome)       {}
func (p *reseedPolicy) Reseed(seed rng.Seed)              { p.seeds = append(p.seeds, seed) }
func (p *reseedPolicy) SelectNext(*osn.State) (int, bool) { return 0, false }

// reseedPolicy is Reusable but cannot batch, and records its reseeds.
type reseedPolicy struct {
	plainPolicy
	seeds []rng.Seed
}

func TestPolicyWrapperKeepsOptionalInterfaces(t *testing.T) {
	abm, err := core.NewABM(core.DefaultWeights())
	if err != nil {
		t.Fatal(err)
	}
	rec := newRecorder()
	for _, inner := range []core.Policy{abm, core.NewMaxDegree(), core.NewPageRank(), core.NewRandom(rng.NewSeed(1, 2)), plainPolicy{}, &reseedPolicy{}} {
		w := wrapPolicy(&tracedPolicy{inner: inner, rec: rec, buf: rec.buf(), names: namesFor(inner.Name())})
		_, innerR := inner.(core.Reusable)
		_, innerB := inner.(core.BatchSelector)
		_, wrapR := w.(core.Reusable)
		_, wrapB := w.(core.BatchSelector)
		if innerR != wrapR || innerB != wrapB {
			t.Errorf("%s: inner Reusable=%v BatchSelector=%v, wrapper Reusable=%v BatchSelector=%v",
				inner.Name(), innerR, innerB, wrapR, wrapB)
		}
		if w.Name() != inner.Name() {
			t.Errorf("wrapper name %q, want %q", w.Name(), inner.Name())
		}
	}
	inner := &reseedPolicy{}
	seed := rng.NewSeed(3, 4)
	w := wrapPolicy(&tracedPolicy{inner: inner, rec: rec, buf: rec.buf(), names: namesFor("plain")})
	w.(core.Reusable).Reseed(seed)
	if len(inner.seeds) != 1 || inner.seeds[0] != seed {
		t.Errorf("Reseed reached the inner policy with %v, want [%v]", inner.seeds, seed)
	}
}

// benchmarkFile is the part of BENCHMARK.json the tests compare with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkFileMatchesTheCode keeps BENCHMARK.json and the metrics
// the command prints in step.
func TestBenchmarkFileMatchesTheCode(t *testing.T) {
	b := readBenchmarkFile(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the code %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: file %q (%q), code %q (%q)", i, b.Workloads[i].Name, b.Workloads[i].Why, w.name, w.why)
		}
	}
	gated, _ := e2eMetrics(window{segs: []segment{{records: 1, jobs: 1, wall: time.Second}}, rawWall: time.Second}, 1, 1, 1, &tally{})
	if len(b.EndToEnd) != len(gated) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the code prints %d", len(b.EndToEnd), len(gated))
	}
	for i, m := range gated {
		if b.EndToEnd[i].Name != m.name || b.EndToEnd[i].Unit != m.unit {
			t.Errorf("end-to-end %d: file %s [%s], code %s [%s]", i, b.EndToEnd[i].Name, b.EndToEnd[i].Unit, m.name, m.unit)
		}
	}
	names := perLayerNames()
	if len(b.PerLayer) != len(names) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the code prints %d", len(b.PerLayer), len(names))
	}
	for i, n := range names {
		if b.PerLayer[i].Name != n || b.PerLayer[i].Unit != unitOf(n) {
			t.Errorf("per-layer %d: file %s [%s], code %s [%s]", i, b.PerLayer[i].Name, b.PerLayer[i].Unit, n, unitOf(n))
		}
	}
}

// allocsBound reads allocs_per_cell's bound from BENCHMARK.json.
func allocsBound(t *testing.T) float64 {
	t.Helper()
	for _, m := range readBenchmarkFile(t).EndToEnd {
		if m.Name == "allocs_per_cell" {
			return m.Bound
		}
	}
	t.Fatal("BENCHMARK.json has no allocs_per_cell metric")
	return 0
}

// TestTracingDoesNotChangeTheProgram runs the same grids untraced and
// traced: the digests must agree and tracing may not push allocations
// per cell past the benchmark's own bound.
func TestTracingDoesNotChangeTheProgram(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real grids")
	}
	bound := allocsBound(t)
	ctx := context.Background()
	for _, name := range []string{"slashdot-1net", "dblp-manynet"} {
		w, err := workloadByName(name)
		if err != nil {
			t.Fatal(err)
		}
		d := &gridRunner{w: w, seed: 7, engine: runtime.NumCPU()}
		d.job(ctx, warmupIndex, nil)
		const jobs = 4
		plain := runWindow(ctx, d, 1, 0, time.Minute, jobs, 0, nil)
		rec := newRecorder()
		traced := runWindow(ctx, d, 1, 0, time.Minute, jobs, 0, rec)
		chk := &checker{ops: &tally{}}
		chk.checkJobs(ctx, plain, "untraced", false)
		chk.checkJobs(ctx, traced, "traced", false)
		if n := chk.checkAgree(plain, traced, "untraced", "traced"); n != jobs {
			t.Errorf("%s: compared %d jobs, want %d", name, n, jobs)
		}
		for _, f := range chk.failures {
			t.Errorf("%s: %s", name, f)
		}
		pa := float64(plain.mallocs) / float64(plain.records())
		ta := float64(traced.mallocs) / float64(traced.records())
		t.Logf("%s: allocs/cell untraced %.1f, traced %.1f", name, pa, ta)
		if ta > pa*(1+bound) {
			t.Errorf("%s: traced allocs/cell %.1f exceed untraced %.1f by more than the bound %.2f", name, ta, pa, bound)
		}
		// Every policy span must have found its cell through the seed
		// map, or the engine's seed derivation moved.
		for _, s := range rec.all() {
			if strings.HasPrefix(s.name, "core.") && s.trace&0xffffffff == 0 {
				t.Fatalf("%s: span %s carries no cell", name, s.name)
			}
		}
	}
}
