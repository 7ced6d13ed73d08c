// Package analysis is a self-contained static-analysis framework plus the
// accuvet analyzer suite that enforces this repository's determinism
// invariants at compile time.
//
// The framework mirrors the shape of golang.org/x/tools/go/analysis —
// Analyzer, Pass, Diagnostic — but is built only on the standard library
// (go/ast, go/types, and the go command for package metadata and export
// data), because this module deliberately carries zero external
// dependencies. Analyzers run over fully type-checked packages, so checks
// are semantic (import-path and object identity), not textual.
//
// Suppression: a comment of the form
//
//	//accu:allow <analyzer>[,<analyzer>...] [-- reason]
//
// on the offending line, or on the line directly above it, silences the
// named analyzers for that line. Every use of the directive should carry
// a reason; it is the audited escape hatch for intentional violations
// (e.g. a map iteration whose output is sorted immediately after). A
// name that is not in the suite suppresses nothing, so it is itself
// reported, under the analyzer name "allow", and no directive can
// silence that finding.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
	"sync"
)

// An Analyzer describes one named check.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in //accu:allow
	// directives. Lowercase, no spaces.
	Name string

	// Doc is a one-paragraph description of what the analyzer enforces.
	Doc string

	// Run applies the analyzer to one package. Diagnostics are reported
	// through the pass; the error return is reserved for analyzer
	// failures (not findings).
	Run func(*Pass) error
}

// A Diagnostic is one finding, tied to a source position.
type Diagnostic struct {
	Pos      token.Pos
	Analyzer string
	Message  string

	// Suppressed marks a finding covered by an //accu:allow directive.
	// The checkers drop suppressed findings; RunAnalyzersAll keeps them
	// so audits and regression tests can pin the allowed sites.
	Suppressed bool

	// SuggestedFixes are source edits that would resolve the finding.
	// Fixes marked MachineApplicable are safe to apply without human
	// review and are what `accuvet -fix` applies; advisory fixes are
	// carried through to the SARIF log only.
	SuggestedFixes []SuggestedFix
}

// A SuggestedFix is one candidate resolution of a diagnostic: a set of
// non-overlapping text edits applied together.
type SuggestedFix struct {
	// Message describes the fix ("add explicit json tag").
	Message string
	// Edits are the source changes, in any order; the applier sorts and
	// rejects overlaps.
	Edits []TextEdit
	// MachineApplicable marks a fix that is behavior-preserving by
	// construction and safe for unattended application.
	MachineApplicable bool
}

// A TextEdit replaces the source range [Pos, End) with NewText. A
// zero-width range (End == Pos) is an insertion.
type TextEdit struct {
	Pos     token.Pos
	End     token.Pos
	NewText string
}

// A Pass carries one type-checked package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	// Path is the package's import path as reported by the build system
	// (test variants stripped by the drivers before analyzers run).
	Path string

	allow       allowIndex
	diagnostics *[]Diagnostic
}

// Reportf records a diagnostic at pos. Findings covered by an
// //accu:allow directive are recorded with Suppressed set; the checkers
// filter them out, audit mode keeps them.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.ReportfFix(pos, nil, format, args...)
}

// ReportfFix is Reportf with suggested fixes attached to the finding.
func (p *Pass) ReportfFix(pos token.Pos, fixes []SuggestedFix, format string, args ...any) {
	*p.diagnostics = append(*p.diagnostics, Diagnostic{
		Pos:            pos,
		Analyzer:       p.Analyzer.Name,
		Message:        fmt.Sprintf(format, args...),
		Suppressed:     p.allow.covers(p.Fset, pos, p.Analyzer.Name),
		SuggestedFixes: fixes,
	})
}

// allowIndex maps file -> line -> analyzer names suppressed on that line.
type allowIndex map[string]map[int]map[string]bool

// allowDirective matches the suppression comment. The directive text (after
// "//") must start exactly with "accu:allow".
var allowDirective = regexp.MustCompile(`^//accu:allow\s+([a-z0-9_,\s]+?)\s*(?:--.*)?$`)

// AllowCheck is the Diagnostic.Analyzer of unknown-name findings. It is
// not an analyzer, so no directive can name it.
const AllowCheck = "allow"

// suiteNames is the set of analyzer names a directive may use — always
// the full suite, so a run over a subset of analyzers does not flag
// directives meant for the others.
var suiteNames = sync.OnceValue(func() map[string]bool {
	names := make(map[string]bool)
	for _, a := range NewSuite() {
		names[a.Name] = true
	}
	return names
})

// buildAllowIndex scans every comment in the files for //accu:allow
// directives. A directive covers its own line and the following line, so
// both trailing comments and standalone comment lines work. Names
// outside the suite are returned as unsuppressed findings.
func buildAllowIndex(fset *token.FileSet, files []*ast.File) (allowIndex, []Diagnostic) {
	idx := make(allowIndex)
	var unknown []Diagnostic
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := allowDirective.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				lines := idx[pos.Filename]
				if lines == nil {
					lines = make(map[int]map[string]bool)
					idx[pos.Filename] = lines
				}
				for _, name := range strings.FieldsFunc(m[1], func(r rune) bool {
					return r == ',' || r == ' ' || r == '\t'
				}) {
					if !suiteNames()[name] {
						unknown = append(unknown, Diagnostic{
							Pos:      c.Pos(),
							Analyzer: AllowCheck,
							Message:  fmt.Sprintf("//accu:allow names %q, which is not an accuvet analyzer; the directive suppresses nothing (accuvet -list prints the suite)", name),
						})
					}
					for _, line := range []int{pos.Line, pos.Line + 1} {
						set := lines[line]
						if set == nil {
							set = make(map[string]bool)
							lines[line] = set
						}
						set[name] = true
					}
				}
			}
		}
	}
	return idx, unknown
}

func (idx allowIndex) covers(fset *token.FileSet, pos token.Pos, analyzer string) bool {
	if idx == nil || !pos.IsValid() {
		return false
	}
	p := fset.Position(pos)
	return idx[p.Filename][p.Line][analyzer]
}

// RunAnalyzers applies every analyzer to the package and returns the
// unsuppressed findings sorted by position. The package's allow
// directives are parsed once and shared across analyzers.
func RunAnalyzers(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	all, err := RunAnalyzersAll(pkg, analyzers)
	if err != nil {
		return nil, err
	}
	diags := all[:0]
	for _, d := range all {
		if !d.Suppressed {
			diags = append(diags, d)
		}
	}
	return diags, nil
}

// RunAnalyzersAll is RunAnalyzers without the suppression filter: allowed
// findings are returned too, with Suppressed set. This is the audit
// surface — it answers "what would fire if the //accu:allow directives
// were removed", which is how regression tests pin that an annotated
// true positive is still detected.
func RunAnalyzersAll(pkg *Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	allow, diags := buildAllowIndex(pkg.Fset, pkg.Files)
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:    a,
			Fset:        pkg.Fset,
			Files:       pkg.Files,
			Pkg:         pkg.Types,
			Info:        pkg.Info,
			Path:        pkg.ImportPath,
			allow:       allow,
			diagnostics: &diags,
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.ImportPath, err)
		}
	}
	sortDiagnostics(pkg.Fset, diags)
	return diags, nil
}

func sortDiagnostics(fset *token.FileSet, diags []Diagnostic) {
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := fset.Position(diags[i].Pos), fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return pi.Column < pj.Column
	})
}

// inspectWithStack walks every node in the files, keeping the ancestor
// stack. fn receives the node and its ancestors (outermost first) and
// returns whether to descend into the node's children.
func inspectWithStack(files []*ast.File, fn func(n ast.Node, stack []ast.Node) bool) {
	var stack []ast.Node
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			descend := fn(n, stack)
			if descend {
				stack = append(stack, n)
			}
			return descend
		})
	}
}

// pkgPathIs reports whether path refers to the module package with the
// given module-relative suffix (e.g. "internal/core"). It matches both
// the in-module form "github.com/accu-sim/accu/internal/core" and the
// bare suffix used by test fixtures.
func pkgPathIs(path, suffix string) bool {
	return path == suffix || strings.HasSuffix(path, "/"+suffix)
}

// pkgPathIn reports whether path matches any of the suffixes.
func pkgPathIn(path string, suffixes []string) bool {
	for _, s := range suffixes {
		if pkgPathIs(path, s) {
			return true
		}
	}
	return false
}

// objectPkgIs reports whether obj is declared in the package with the
// given import-path suffix.
func objectPkgIs(obj types.Object, suffix string) bool {
	return obj != nil && obj.Pkg() != nil && pkgPathIs(obj.Pkg().Path(), suffix)
}
