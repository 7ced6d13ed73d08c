package analysis

// fix.go is the autofix applier behind `accuvet -fix`: it takes the
// MachineApplicable suggested fixes off a run's diagnostics and rewrites
// the source files — atomically, gofmt-clean, and idempotently (a fix
// resolves its finding, so a second run has nothing left to apply).
//
// Safety rules, in order:
//
//   - Only fixes marked MachineApplicable are applied; advisory fixes
//     ride along to SARIF for humans. Suppressed findings are skipped —
//     an //accu:allow site was audited as intentional, rewriting it
//     would undo a human decision.
//   - A fix is all-or-nothing: every edit in it applies or none does.
//     Fixes whose edits overlap an already-selected fix are skipped and
//     counted, never half-applied. Edits spanning multiple files are
//     rejected outright.
//   - The rewritten file must survive go/format before it is written;
//     a fix that produces unparseable code aborts the whole run with the
//     file untouched.
//   - Writes are atomic (tmp + rename in the same directory), so a
//     crash mid-fix never leaves a torn source file.

import (
	"bytes"
	"fmt"
	"go/format"
	"go/token"
	"os"
	"path/filepath"
	"sort"
)

// FixResult summarizes one ApplyFixes run.
type FixResult struct {
	// Files are the rewritten files, sorted.
	Files []string
	// Applied counts the fixes applied across all files.
	Applied int
	// Skipped counts machine-applicable fixes dropped because they
	// overlapped an already-selected fix; re-running after the first
	// round usually applies them.
	Skipped int
}

// offEdit is a TextEdit resolved to byte offsets within one file.
type offEdit struct {
	start, end int
	text       string
}

// fixPlan is one fix's resolved edits, kept atomic.
type fixPlan struct {
	edits []offEdit
}

func (p fixPlan) key() string {
	var b bytes.Buffer
	for _, e := range p.edits {
		fmt.Fprintf(&b, "%d:%d:%q;", e.start, e.end, e.text)
	}
	return b.String()
}

func overlaps(a, b offEdit) bool {
	return a.start < b.end && b.start < a.end
}

// ApplyFixes applies the machine-applicable fixes attached to diags and
// returns what changed. Unsuppressed findings only; one fix is either
// fully applied or skipped.
func ApplyFixes(fset *token.FileSet, diags []Diagnostic) (*FixResult, error) {
	byFile := make(map[string][]fixPlan)
	for _, d := range diags {
		if d.Suppressed {
			continue
		}
		for _, f := range d.SuggestedFixes {
			if !f.MachineApplicable || len(f.Edits) == 0 {
				continue
			}
			file, plan, ok := resolveFix(fset, f)
			if ok {
				byFile[file] = append(byFile[file], plan)
			}
		}
	}

	files := make([]string, 0, len(byFile))
	for f := range byFile {
		files = append(files, f)
	}
	sort.Strings(files)

	res := &FixResult{}
	for _, file := range files {
		changed, err := applyFileFixes(file, byFile[file], res)
		if err != nil {
			return nil, err
		}
		if changed {
			res.Files = append(res.Files, file)
		}
	}
	return res, nil
}

// resolveFix maps one fix's token positions to byte offsets; ok is
// false when any edit is invalid or the fix spans files.
func resolveFix(fset *token.FileSet, f SuggestedFix) (string, fixPlan, bool) {
	var plan fixPlan
	file := ""
	for _, e := range f.Edits {
		if !e.Pos.IsValid() || !e.End.IsValid() {
			return "", plan, false
		}
		ps, pe := fset.Position(e.Pos), fset.Position(e.End)
		if pe.Offset < ps.Offset || ps.Filename == "" || pe.Filename != ps.Filename {
			return "", plan, false
		}
		if file == "" {
			file = ps.Filename
		} else if ps.Filename != file {
			return "", plan, false
		}
		plan.edits = append(plan.edits, offEdit{start: ps.Offset, end: pe.Offset, text: e.NewText})
	}
	sort.Slice(plan.edits, func(i, j int) bool { return plan.edits[i].start < plan.edits[j].start })
	for i := 1; i < len(plan.edits); i++ {
		if overlaps(plan.edits[i-1], plan.edits[i]) {
			return "", plan, false
		}
	}
	return file, plan, file != ""
}

// applyFileFixes selects the non-conflicting fixes for one file, applies
// them, formats, and writes atomically. Reports whether the file
// changed.
func applyFileFixes(file string, plans []fixPlan, res *FixResult) (bool, error) {
	src, err := os.ReadFile(file)
	if err != nil {
		return false, fmt.Errorf("fix: %w", err)
	}
	for _, p := range plans {
		for _, e := range p.edits {
			if e.end > len(src) {
				return false, fmt.Errorf("fix %s: edit beyond EOF (stale positions?)", file)
			}
		}
	}

	seen := make(map[string]bool, len(plans))
	var taken []offEdit
	applied := 0
	for _, p := range plans {
		if seen[p.key()] {
			continue // the same fix reported twice (e.g. by two diagnostics)
		}
		conflict := false
		for _, e := range p.edits {
			for _, t := range taken {
				if overlaps(e, t) {
					conflict = true
				}
			}
		}
		if conflict {
			res.Skipped++
			continue
		}
		seen[p.key()] = true
		taken = append(taken, p.edits...)
		applied++
	}
	if len(taken) == 0 {
		return false, nil
	}

	// Apply back-to-front so earlier offsets stay valid. Equal-offset
	// insertions keep selection order via the index tiebreak.
	idx := make(map[offEdit]int, len(taken))
	for i, e := range taken {
		idx[e] = i
	}
	sort.SliceStable(taken, func(i, j int) bool {
		if taken[i].start != taken[j].start {
			return taken[i].start > taken[j].start
		}
		return idx[taken[i]] > idx[taken[j]]
	})
	out := append([]byte(nil), src...)
	for _, e := range taken {
		out = append(out[:e.start], append([]byte(e.text), out[e.end:]...)...)
	}

	formatted, err := format.Source(out)
	if err != nil {
		return false, fmt.Errorf("fix %s: result does not gofmt (fix bug, file untouched): %w", file, err)
	}
	if bytes.Equal(formatted, src) {
		return false, nil
	}

	info, err := os.Stat(file)
	if err != nil {
		return false, fmt.Errorf("fix: %w", err)
	}
	tmp := filepath.Join(filepath.Dir(file), "."+filepath.Base(file)+".accuvet-fix")
	if err := os.WriteFile(tmp, formatted, info.Mode().Perm()); err != nil {
		return false, fmt.Errorf("fix: %w", err)
	}
	if err := os.Rename(tmp, file); err != nil {
		os.Remove(tmp)
		return false, fmt.Errorf("fix: %w", err)
	}
	res.Applied += applied
	return true, nil
}
