package analysis_test

import (
	"testing"

	"github.com/accu-sim/accu/internal/analysis"
	"github.com/accu-sim/accu/internal/analysis/analysistest"
)

func TestFsyncAck(t *testing.T) {
	analysistest.Run(t, analysis.FsyncAck(), analysistest.Fixture{
		Dir:        "testdata/src/fsyncack_serv",
		ImportPath: "example.test/internal/serv",
		Deps: map[string]string{
			"example.test/internal/sim": "testdata/src/simjournal_stub",
		},
	})
}

// TestFsyncAckOutOfScope pins that the ordering check only applies to
// the service layers.
func TestFsyncAckOutOfScope(t *testing.T) {
	_, _, diags := analysistest.Diagnostics(t, analysis.FsyncAck(), analysistest.Fixture{
		Dir:        "testdata/src/fsyncack_serv",
		ImportPath: "example.test/internal/exp",
		Deps: map[string]string{
			"example.test/internal/sim": "testdata/src/simjournal_stub",
		},
	})
	if len(diags) != 0 {
		t.Fatalf("fsyncack out of scope reported %d findings, want 0: %v", len(diags), diags)
	}
}

// TestRespWrite pins the double-commit half of fsyncack: a header
// committed twice on one path, directly or through envelope helpers.
func TestRespWrite(t *testing.T) {
	analysistest.Run(t, analysis.FsyncAck(), analysistest.Fixture{
		Dir:        "testdata/src/respwrite_serv",
		ImportPath: "example.test/internal/serv",
	})
}
