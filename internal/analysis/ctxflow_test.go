package analysis_test

import (
	"testing"

	"github.com/accu-sim/accu/internal/analysis"
	"github.com/accu-sim/accu/internal/analysis/analysistest"
)

func TestCtxFlow(t *testing.T) {
	analysistest.Run(t, analysis.CtxFlow(), analysistest.Fixture{
		Dir:        "testdata/src/ctxflow_serv",
		ImportPath: "example.test/internal/serv",
	})
}

// TestTimerLeak pins the timer half of ctxflow: time.After inside a loop
// and time.Tick anywhere, with no context in scope.
func TestTimerLeak(t *testing.T) {
	analysistest.Run(t, analysis.CtxFlow(), analysistest.Fixture{
		Dir:        "testdata/src/timerleak_serv",
		ImportPath: "example.test/internal/serv",
	})
}
