package analysis_test

import (
	"strings"
	"testing"

	"github.com/accu-sim/accu/internal/analysis"
)

// TestRealTreeSuppressedFindings loads the real engine and service
// packages and audits them with RunAnalyzersAll: every //accu:allow in
// the tree must still cover a live finding (the analyzers keep detecting
// the annotated sites), and nothing unsuppressed may have crept in. If
// an annotated site is refactored away, the stale directive shows up
// here; if an analyzer regresses and stops seeing the site, that shows
// up too.
func TestRealTreeSuppressedFindings(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the real packages")
	}
	// Per package: analyzer name → {message fragment → expected count}.
	// Counts pin the wave-3 lockedio allowances exactly: each one marks
	// an intentional write-under-lock durability barrier.
	pins := map[string]map[string]map[string]int{
		"github.com/accu-sim/accu/internal/sim": {
			"seedflow":      {"reaches 2 sinks": 1},
			"scratchescape": {"goroutine captures per-worker scratch sc": 1},
			// CellJournal serializes append/fsync/close under j.mu —
			// that mutual exclusion IS the durability contract.
			"lockedio": {
				"(*os.File).Write": 1,
				"(*os.File).Sync":  3,
				"(*os.File).Close": 2,
			},
		},
		"github.com/accu-sim/accu/internal/dist": {
			// The coordinator commits a cell to its journal before the
			// upload response acks it durable (fsync-before-ack).
			"lockedio": {"(*sim.CellJournal).Commit": 1},
		},
		"github.com/accu-sim/accu/internal/serv": {
			// Job documents persist under s.mu before state transitions
			// become visible to waiters (durability-before-signal).
			"lockedio": {"saveJob → os.WriteFile": 9},
		},
		// Wave-4 regression pins: errdrop surfaced a discarded
		// (Coordinator).Close — a swallowed final fsync — on accudist's
		// serve-error path, and wiretag surfaced sim.Record (the journal
		// line payload) relying on encoding/json field-name fallback.
		// Both are fixed; an empty pin set keeps the package in the
		// nothing-unsuppressed sweep so the bugs cannot return. The
		// stats entry pins detflow's third scope (the sketch/welford
		// sink package) as clean — detflow, fsyncack and chanleak found
		// no true positives in the tree, and this sweep is what keeps
		// that verdict from silently eroding.
		"github.com/accu-sim/accu/cmd/accudist":   {},
		"github.com/accu-sim/accu/internal/stats": {},
		// The strict record-path packages: detflow's source ban (no
		// clock, env or global rand) and maporder are pinned on the real
		// code, not only on fixtures. gen's one map range collects keys
		// that are sorted before return.
		"github.com/accu-sim/accu/internal/core": {},
		"github.com/accu-sim/accu/internal/osn":  {},
		"github.com/accu-sim/accu/internal/gen": {
			"maporder": {"appends to a slice": 1},
		},
	}
	for path, pinned := range pins {
		t.Run(path[strings.LastIndex(path, "/")+1:], func(t *testing.T) {
			pkgs, err := analysis.Load("", path)
			if err != nil {
				t.Fatalf("loading %s: %v", path, err)
			}
			if len(pkgs) != 1 {
				t.Fatalf("got %d packages, want 1", len(pkgs))
			}
			diags, err := analysis.RunAnalyzersAll(pkgs[0], analysis.NewSuite())
			if err != nil {
				t.Fatal(err)
			}
			for analyzer, fragments := range pinned {
				for fragment, want := range fragments {
					got := 0
					for _, d := range diags {
						if d.Analyzer == analyzer && d.Suppressed && strings.Contains(d.Message, fragment) {
							got++
						}
					}
					if got != want {
						t.Errorf("suppressed %s findings matching %q in %s: got %d, want %d; an //accu:allow site moved or the analyzer regressed", analyzer, fragment, path, got, want)
					}
				}
			}
			for _, d := range diags {
				if !d.Suppressed {
					pos := pkgs[0].Fset.Position(d.Pos)
					t.Errorf("unsuppressed finding in %s: %s: %s [%s]", path, pos, d.Message, d.Analyzer)
				}
			}
		})
	}
}
