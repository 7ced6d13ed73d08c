package analysis_test

import (
	"strings"
	"testing"

	"github.com/accu-sim/accu/internal/analysis"
	"github.com/accu-sim/accu/internal/analysis/analysistest"
)

// TestAllowMultipleNames pins the multi-name //accu:allow form: one
// directive listing several analyzers suppresses exactly the named ones
// on the covered line. The fixture violates lockbalance and ctxcancel on
// a single line; a two-name directive silences both, a one-name
// directive leaves the other analyzer's finding live.
func TestAllowMultipleNames(t *testing.T) {
	analysistest.RunAll(t,
		[]*analysis.Analyzer{analysis.LockBalance(), analysis.CtxCancel()},
		analysistest.Fixture{
			Dir:        "testdata/src/allowmulti_sim",
			ImportPath: "example.test/internal/sim",
			Deps:       stubDeps,
		})
}

// TestAllowUnknownNames pins that a directive naming an analyzer outside
// the suite is a finding: it would otherwise suppress nothing and say
// nothing. Names are checked against the full suite, so the single
// analyzer run here does not flag directives meant for the others, and
// no directive can suppress the finding.
func TestAllowUnknownNames(t *testing.T) {
	fset, _, diags := analysistest.Diagnostics(t, analysis.MapOrder(), analysistest.Fixture{
		Dir:        "testdata/src/allowunknown_sim",
		ImportPath: "example.test/internal/sim",
	})
	want := map[int]string{17: `"lockdio"`, 24: `"nosuchcheck"`, 31: `"allow"`}
	if len(diags) != len(want) {
		t.Fatalf("got %d findings, want %d: %v", len(diags), len(want), diags)
	}
	for _, d := range diags {
		line := fset.Position(d.Pos).Line
		if d.Analyzer != analysis.AllowCheck || d.Suppressed || !strings.Contains(d.Message, want[line]) || want[line] == "" {
			t.Errorf("line %d: unexpected finding %q [%s] suppressed=%v", line, d.Message, d.Analyzer, d.Suppressed)
		}
	}
}
