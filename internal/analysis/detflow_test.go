package analysis_test

import (
	"testing"

	"github.com/accu-sim/accu/internal/analysis"
	"github.com/accu-sim/accu/internal/analysis/analysistest"
)

// stubDeps maps the production import paths the analyzers key on to the
// fixture stub packages.
var stubDeps = map[string]string{
	"example.test/internal/rng":    "testdata/src/rng_stub",
	"example.test/internal/obs":    "testdata/src/obs_stub",
	"example.test/internal/core":   "testdata/src/core_stub",
	"example.test/internal/report": "testdata/src/report_stub",
}

// TestDetrandStrictPackage pins the source ban in a strict package:
// clock, environment and global-rand reads are all findings.
func TestDetrandStrictPackage(t *testing.T) {
	analysistest.Run(t, analysis.Detflow(), analysistest.Fixture{
		Dir:        "testdata/src/detrand_core",
		ImportPath: "example.test/internal/core",
		Deps:       stubDeps,
	})
}

// TestDetrandTimingPackage pins the source ban in a timing package: the
// clock is legal, global rand and the environment are not.
func TestDetrandTimingPackage(t *testing.T) {
	analysistest.Run(t, analysis.Detflow(), analysistest.Fixture{
		Dir:        "testdata/src/detrand_sim",
		ImportPath: "example.test/internal/sim",
		Deps:       stubDeps,
	})
}

// TestDetrandOutOfScope re-types the timing fixture under an unscoped
// import path: the analyzer must stay silent there, global rand and all.
func TestDetrandOutOfScope(t *testing.T) {
	_, _, diags := analysistest.Diagnostics(t, analysis.Detflow(), analysistest.Fixture{
		Dir:        "testdata/src/detrand_sim",
		ImportPath: "example.test/internal/exp",
		Deps:       stubDeps,
	})
	if len(diags) != 0 {
		t.Fatalf("out-of-scope package produced %d diagnostics, want 0", len(diags))
	}
}

func TestDetflow(t *testing.T) {
	analysistest.Run(t, analysis.Detflow(), analysistest.Fixture{
		Dir:        "testdata/src/detflow_sim",
		ImportPath: "example.test/internal/sim",
	})
}

// TestDetflowOutOfScope pins that both layers stay quiet outside the
// deterministic packages — handlers may time requests into metrics.
func TestDetflowOutOfScope(t *testing.T) {
	_, _, diags := analysistest.Diagnostics(t, analysis.Detflow(), analysistest.Fixture{
		Dir:        "testdata/src/detflow_sim",
		ImportPath: "example.test/internal/serv",
	})
	if len(diags) != 0 {
		t.Fatalf("detflow out of scope reported %d findings, want 0: %v", len(diags), diags)
	}
}
