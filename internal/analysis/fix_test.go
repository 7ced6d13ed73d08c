package analysis_test

// Golden tests for the autofix pipeline: each fixture is copied to a
// temp dir, analyzed, fixed in place, and compared byte-for-byte against
// the expected rewrite. Every test then re-runs the analyzer on the
// fixed tree (idempotency: the second -fix pass must be a no-op) and
// checks the output still gofmts to itself.

import (
	"bytes"
	"go/format"
	"go/token"
	"os"
	"path/filepath"
	"testing"

	"github.com/accu-sim/accu/internal/analysis"
	"github.com/accu-sim/accu/internal/analysis/analysistest"
)

// copyFixture clones a fixture directory into a temp dir so ApplyFixes
// can rewrite it without touching testdata.
func copyFixture(t *testing.T, src string) string {
	t.Helper()
	dir := t.TempDir()
	names, err := filepath.Glob(filepath.Join(src, "*.go"))
	if err != nil || len(names) == 0 {
		t.Fatalf("copyFixture %s: %v (found %d files)", src, err, len(names))
	}
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(name)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// runFix analyzes dir and applies the machine-applicable fixes.
func runFix(t *testing.T, a *analysis.Analyzer, dir string) *analysis.FixResult {
	t.Helper()
	fset, _, diags := analysistest.Diagnostics(t, a, analysistest.Fixture{
		Dir:        dir,
		ImportPath: "example.test/internal/sim",
	})
	res, err := analysis.ApplyFixes(fset, diags)
	if err != nil {
		t.Fatalf("ApplyFixes: %v", err)
	}
	return res
}

// checkFixedFile asserts the rewritten fixture matches the golden text
// and is gofmt-clean.
func checkFixedFile(t *testing.T, dir, want string) {
	t.Helper()
	got, err := os.ReadFile(filepath.Join(dir, "fixture.go"))
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Errorf("fixed file mismatch:\n--- got ---\n%s--- want ---\n%s", got, want)
	}
	formatted, err := format.Source(got)
	if err != nil {
		t.Fatalf("fixed file does not parse: %v", err)
	}
	if !bytes.Equal(formatted, got) {
		t.Errorf("fixed file is not gofmt-clean:\n%s", got)
	}
}

func TestFixTimerLeakGolden(t *testing.T) {
	dir := copyFixture(t, "testdata/src/fixgolden_tick")
	res := runFix(t, analysis.CtxFlow(), dir)
	if res.Applied != 1 || res.Skipped != 0 || len(res.Files) != 1 {
		t.Fatalf("first pass: applied=%d skipped=%d files=%v, want 1/0/1 file", res.Applied, res.Skipped, res.Files)
	}
	checkFixedFile(t, dir, `// Package sim is the time.Tick autofix golden fixture: one time.Tick
// call whose machine-applicable fix rewrites it to time.NewTicker(d).C.
package sim

import "time"

func poll(stop chan struct{}) {
	for {
		select {
		case <-time.NewTicker(5 * time.Millisecond).C:
		case <-stop:
			return
		}
	}
}
`)

	// Idempotency: the fix resolved the finding, so a second pass has
	// nothing to do.
	res = runFix(t, analysis.CtxFlow(), dir)
	if res.Applied != 0 || len(res.Files) != 0 {
		t.Fatalf("second pass not a no-op: applied=%d files=%v", res.Applied, res.Files)
	}
}

func TestFixWireTagGolden(t *testing.T) {
	dir := copyFixture(t, "testdata/src/fixgolden_wire")
	res := runFix(t, analysis.WireTag(), dir)
	if res.Applied != 2 || res.Skipped != 0 || len(res.Files) != 1 {
		t.Fatalf("first pass: applied=%d skipped=%d files=%v, want 2/0/1 file", res.Applied, res.Skipped, res.Files)
	}
	checkFixedFile(t, dir, `// Package sim is the wiretag autofix golden fixture: a marked wire
// struct with one untagged field and one unkeyed composite literal,
// both carrying machine-applicable fixes.
package sim

//accu:wire
type Header struct {
	Cells int    `+"`json:\"cells\"`"+`
	Crc   uint32 `+"`json:\"Crc\"`"+`
}

func mk() Header {
	return Header{Cells: 3, Crc: 9}
}
`)

	res = runFix(t, analysis.WireTag(), dir)
	if res.Applied != 0 || len(res.Files) != 0 {
		t.Fatalf("second pass not a no-op: applied=%d files=%v", res.Applied, res.Files)
	}
}

// TestApplyFixesOverlap pins the conflict rule: of two fixes editing the
// same span, exactly one applies and the other is counted skipped.
func TestApplyFixesOverlap(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.go")
	if err := os.WriteFile(path, []byte("package p\n\nvar x = 1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	base := fset.AddFile(path, -1, 32).Pos(0)
	span := func(start, end int, text string) analysis.SuggestedFix {
		return analysis.SuggestedFix{
			Message:           "edit",
			MachineApplicable: true,
			Edits:             []analysis.TextEdit{{Pos: base + token.Pos(start), End: base + token.Pos(end), NewText: text}},
		}
	}
	diags := []analysis.Diagnostic{
		{Pos: base, Analyzer: "t", Message: "m1", SuggestedFixes: []analysis.SuggestedFix{span(19, 20, "2")}},
		{Pos: base, Analyzer: "t", Message: "m2", SuggestedFixes: []analysis.SuggestedFix{span(19, 20, "3")}},
	}
	res, err := analysis.ApplyFixes(fset, diags)
	if err != nil {
		t.Fatal(err)
	}
	if res.Applied != 1 || res.Skipped != 1 {
		t.Fatalf("applied=%d skipped=%d, want 1/1", res.Applied, res.Skipped)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "package p\n\nvar x = 2\n" {
		t.Fatalf("got %q", got)
	}
}
