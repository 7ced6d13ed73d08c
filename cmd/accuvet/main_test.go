package main

import (
	"bytes"
	"encoding/json"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"github.com/accu-sim/accu/internal/analysis"
)

// TestRepoIsClean is the lint smoke test: the suite must run clean over
// this repository, exactly as `make lint` / CI invoke it.
func TestRepoIsClean(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"github.com/accu-sim/accu/..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("accuvet exit %d on clean repo:\n%s%s", code, stdout.String(), stderr.String())
	}
}

// TestSyntheticViolationFails builds a throwaway module containing a
// deterministic-package clock read and asserts the checker fails on it.
func TestSyntheticViolationFails(t *testing.T) {
	dir := t.TempDir()
	corePkg := filepath.Join(dir, "internal", "core")
	if err := os.MkdirAll(corePkg, 0o755); err != nil {
		t.Fatal(err)
	}
	files := map[string]string{
		filepath.Join(dir, "go.mod"): "module example.test\n\ngo 1.22\n",
		filepath.Join(corePkg, "bad.go"): `package core

import "time"

// Stamp leaks wall-clock time into the record path.
func Stamp() int64 { return time.Now().UnixNano() }
`,
	}
	for name, content := range files {
		if err := os.WriteFile(name, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Chdir(dir)

	var stdout, stderr bytes.Buffer
	code := run([]string{"./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	if out := stderr.String(); !strings.Contains(out, "time.Now reads the clock") || !strings.Contains(out, "[detflow]") {
		t.Fatalf("missing detflow finding in output:\n%s", out)
	}
}

// TestListAnalyzers: -list names all sixteen analyzers.
func TestListAnalyzers(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d: %s", code, stderr.String())
	}
	names := []string{
		"detflow", "maporder", "seedflow", "metricname",
		"lockbalance", "atomicmix", "ctxcancel", "scratchescape", "errcmp", "chanleak",
		"httpbody", "lockedio", "ctxflow",
		"errdrop", "fsyncack", "wiretag",
	}
	for _, name := range names {
		if !strings.Contains(stdout.String(), name) {
			t.Errorf("missing analyzer %q in -list output:\n%s", name, stdout.String())
		}
	}
	if got := strings.Count(strings.TrimRight(stdout.String(), "\n"), "\n") + 1; got != len(names) {
		t.Errorf("-list printed %d analyzers, want %d:\n%s", got, len(names), stdout.String())
	}
}

// TestVetProtocolFlags: the go command interrogates -flags before
// passing anything through; the answer must be valid JSON (accuvet
// exposes no extra flags, so an empty array).
func TestVetProtocolFlags(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-flags"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d: %s", code, stderr.String())
	}
	if got := strings.TrimSpace(stdout.String()); got != "[]" {
		t.Errorf("-flags output = %q, want []", got)
	}
}

// TestSARIFStdout: -sarif - writes the machine-readable verdict to
// stdout — a parseable log with no results for a clean package.
func TestSARIFStdout(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-sarif", "-", "github.com/accu-sim/accu/internal/rng"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit = %d: %s", code, stderr.String())
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Results []json.RawMessage `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &log); err != nil {
		t.Fatalf("stdout is not a SARIF log: %v\n%s", err, stdout.String())
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 || len(log.Runs[0].Results) != 0 {
		t.Errorf("clean package SARIF = %s, want one run with no results", stdout.String())
	}
}

// TestSuggestMode builds a throwaway module with one live violation and
// one already-allowed violation: -suggest prints both (the allowed one
// marked), suggests the //accu:allow syntax for the live one, and exits
// 1 because a live finding remains.
func TestSuggestMode(t *testing.T) {
	dir := t.TempDir()
	corePkg := filepath.Join(dir, "internal", "core")
	if err := os.MkdirAll(corePkg, 0o755); err != nil {
		t.Fatal(err)
	}
	files := map[string]string{
		filepath.Join(dir, "go.mod"): "module example.test\n\ngo 1.22\n",
		filepath.Join(corePkg, "bad.go"): `package core

import "time"

// Stamp leaks wall-clock time into the record path.
func Stamp() int64 { return time.Now().UnixNano() }

// Boot is the audited exception.
func Boot() int64 {
	//accu:allow detflow -- startup banner only, never recorded
	return time.Now().UnixNano()
}
`,
	}
	for name, content := range files {
		if err := os.WriteFile(name, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Chdir(dir)

	var stdout, stderr bytes.Buffer
	code := run([]string{"-suggest", "./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit = %d, want 1 (one live finding)\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
	}
	out := stdout.String()
	for _, fragment := range []string{
		"//accu:allow detflow",
		"to suppress",
		"(allowed)",
	} {
		if !strings.Contains(out, fragment) {
			t.Errorf("missing %q in -suggest output:\n%s", fragment, out)
		}
	}

	// Exit-code consistency: the plain run sees only the live finding
	// and must agree with -suggest's verdict.
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("plain run exit = %d, want 1", code)
	}
}

// writeViolationModule lays out a throwaway module with one clock read
// in a deterministic package (a detflow finding) and chdirs into it.
func writeViolationModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	corePkg := filepath.Join(dir, "internal", "core")
	if err := os.MkdirAll(corePkg, 0o755); err != nil {
		t.Fatal(err)
	}
	files := map[string]string{
		filepath.Join(dir, "go.mod"): "module example.test\n\ngo 1.22\n",
		filepath.Join(corePkg, "bad.go"): `package core

import "time"

// Stamp leaks wall-clock time into the record path.
func Stamp() int64 { return time.Now().UnixNano() }
`,
	}
	for name, content := range files {
		if err := os.WriteFile(name, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Chdir(dir)
	return dir
}

// writeTickModule lays out a throwaway module with a time.Tick call —
// the finding whose fix is machine-applicable — and chdirs into it.
func writeTickModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	pkg := filepath.Join(dir, "internal", "sim")
	if err := os.MkdirAll(pkg, 0o755); err != nil {
		t.Fatal(err)
	}
	files := map[string]string{
		filepath.Join(dir, "go.mod"): "module example.test\n\ngo 1.22\n",
		filepath.Join(pkg, "tick.go"): `package sim

import "time"

// Poll wakes on a leaked ticker.
func Poll(stop chan struct{}) {
	for {
		select {
		case <-time.Tick(time.Second):
		case <-stop:
			return
		}
	}
}
`,
	}
	for name, content := range files {
		if err := os.WriteFile(name, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Chdir(dir)
	return dir
}

// TestFixMode: -fix rewrites time.Tick to time.NewTicker(d).C, leaves
// the tree finding-free, and a second -fix run is a no-op.
func TestFixMode(t *testing.T) {
	dir := writeTickModule(t)
	tick := filepath.Join(dir, "internal", "sim", "tick.go")

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-fix", "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("-fix exit = %d\n%s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "applied 1 fix(es)") {
		t.Errorf("missing fix summary:\n%s", stderr.String())
	}
	data, err := os.ReadFile(tick)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "time.NewTicker(time.Second).C") {
		t.Fatalf("fix not applied:\n%s", data)
	}

	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("post-fix plain run exit = %d, want 0 (finding resolved)\n%s", code, stderr.String())
	}

	// Idempotency: nothing left to apply, file untouched.
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-fix", "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("second -fix exit = %d\n%s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "applied 0 fix(es)") {
		t.Errorf("second -fix was not a no-op:\n%s", stderr.String())
	}
	again, err := os.ReadFile(tick)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Error("second -fix rewrote the file")
	}
}

// TestWireLock drives the lockfile cycle on a throwaway module: snapshot
// the //accu:wire schemas, verify a clean diff, then rename a wire field
// and assert the drift fails the run.
func TestWireLock(t *testing.T) {
	dir := t.TempDir()
	pkg := filepath.Join(dir, "internal", "sim")
	if err := os.MkdirAll(pkg, 0o755); err != nil {
		t.Fatal(err)
	}
	wire := filepath.Join(pkg, "wire.go")
	files := map[string]string{
		filepath.Join(dir, "go.mod"): "module example.test\n\ngo 1.22\n",
		wire: `package sim

// Line is one journal record.
//
//accu:wire
type Line struct {
	Cell  string ` + "`json:\"cell\"`" + `
	Count int    ` + "`json:\"count\"`" + `
}
`,
	}
	for name, content := range files {
		if err := os.WriteFile(name, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	t.Chdir(dir)
	lock := filepath.Join(dir, "wire.lock.json")

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-write-wire-lock", lock, "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("-write-wire-lock exit = %d: %s", code, stderr.String())
	}
	data, err := os.ReadFile(lock)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"example.test/internal/sim"`) || !strings.Contains(string(data), `"cell"`) {
		t.Fatalf("lockfile missing schema:\n%s", data)
	}

	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-wire-lock", lock, "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("clean -wire-lock exit = %d\n%s", code, stderr.String())
	}

	// A wire rename: same Go field, new json name. The analyzer cannot
	// see it (the tag is still explicit and unique); the lockfile must.
	renamed := strings.Replace(string(files[wire]), `json:"count"`, `json:"n"`, 1)
	if err := os.WriteFile(wire, []byte(renamed), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout.Reset()
	stderr.Reset()
	if code := run([]string{"-wire-lock", lock, "./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("drifted -wire-lock exit = %d, want 1\n%s", code, stderr.String())
	}
	if out := stderr.String(); !strings.Contains(out, "wire drift") || !strings.Contains(out, `"count" -> "n"`) {
		t.Errorf("missing drift detail:\n%s", out)
	}
}

// TestSARIFOutput: -sarif renders findings as a parseable SARIF 2.1.0
// log with the analyzer as ruleId and a repo-relative URI, while the
// exit code still reflects the findings.
func TestSARIFOutput(t *testing.T) {
	dir := writeViolationModule(t)
	sarifPath := filepath.Join(dir, "out.sarif")

	var stdout, stderr bytes.Buffer
	if code := run([]string{"-sarif", sarifPath, "./..."}, &stdout, &stderr); code != 1 {
		t.Fatalf("exit = %d, want 1: %s", code, stderr.String())
	}
	data, err := os.ReadFile(sarifPath)
	if err != nil {
		t.Fatal(err)
	}
	var log struct {
		Schema  string `json:"$schema"`
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []struct {
				RuleID    string `json:"ruleId"`
				Level     string `json:"level"`
				Locations []struct {
					PhysicalLocation struct {
						ArtifactLocation struct {
							URI string `json:"uri"`
						} `json:"artifactLocation"`
						Region struct {
							StartLine int `json:"startLine"`
						} `json:"region"`
					} `json:"physicalLocation"`
				} `json:"locations"`
			} `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(data, &log); err != nil {
		t.Fatalf("SARIF output does not parse: %v", err)
	}
	if log.Version != "2.1.0" || !strings.Contains(log.Schema, "sarif-2.1.0") {
		t.Errorf("version/schema = %q / %q, want 2.1.0", log.Version, log.Schema)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("got %d runs, want 1", len(log.Runs))
	}
	r := log.Runs[0]
	if r.Tool.Driver.Name != "accuvet" {
		t.Errorf("driver name = %q", r.Tool.Driver.Name)
	}
	if len(r.Tool.Driver.Rules) != 16 {
		t.Errorf("rules table has %d entries, want 16 (one per analyzer)", len(r.Tool.Driver.Rules))
	}
	if len(r.Results) == 0 {
		t.Fatal("no results in SARIF log for a module with a violation")
	}
	res := r.Results[0]
	if res.RuleID != "detflow" || res.Level != "warning" {
		t.Errorf("result ruleId/level = %q/%q, want detflow/warning", res.RuleID, res.Level)
	}
	loc := res.Locations[0].PhysicalLocation
	if want := "internal/core/bad.go"; loc.ArtifactLocation.URI != want {
		t.Errorf("result uri = %q, want %q", loc.ArtifactLocation.URI, want)
	}
	if loc.Region.StartLine == 0 {
		t.Error("result has no startLine")
	}
}

// TestVetUnitMode: in vettool mode a unit's findings print on stderr
// and set the exit code. The test hand-crafts the unit.cfg the go
// command would pass (export data for "time" comes from go list), so it
// exercises the real vetUnitMode path without re-execing the binary.
func TestVetUnitMode(t *testing.T) {
	dir := writeViolationModule(t)
	badGo := filepath.Join(dir, "internal", "core", "bad.go")

	export, err := exec.Command("go", "list", "-export", "-f", "{{.Export}}", "time").Output()
	if err != nil {
		t.Skipf("go list -export time: %v", err)
	}
	cfg := analysis.VetConfig{
		ID:          "example.test/internal/core",
		Compiler:    "gc",
		Dir:         filepath.Join(dir, "internal", "core"),
		ImportPath:  "example.test/internal/core",
		GoFiles:     []string{badGo},
		ImportMap:   map[string]string{"time": "time"},
		PackageFile: map[string]string{"time": strings.TrimSpace(string(export))},
	}
	data, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfgPath := filepath.Join(dir, "unit.cfg")
	if err := os.WriteFile(cfgPath, data, 0o644); err != nil {
		t.Fatal(err)
	}

	var stdout, stderr bytes.Buffer
	if code := run([]string{cfgPath}, &stdout, &stderr); code != 1 {
		t.Fatalf("vet unit exit = %d, want 1\n%s", code, stderr.String())
	}
	if out := stderr.String(); !strings.Contains(out, "bad.go:6:") || !strings.Contains(out, "time.Now reads the clock") || !strings.Contains(out, "[detflow]") {
		t.Errorf("missing detflow finding in vet unit output:\n%s", out)
	}
}

// TestDedupSort: duplicate findings collapse and output ordering is by
// file, line, column, analyzer — independent of insertion order.
func TestDedupSort(t *testing.T) {
	fset := token.NewFileSet()
	fileB := fset.AddFile("b.go", -1, 100)
	fileA := fset.AddFile("a.go", -1, 100)
	posB := fileB.Pos(10)
	posA1 := fileA.Pos(50)
	posA2 := fileA.Pos(5)

	diags := []analysis.Diagnostic{
		{Pos: posB, Analyzer: "maporder", Message: "m3"},
		{Pos: posA1, Analyzer: "detflow", Message: "m2"},
		{Pos: posA2, Analyzer: "seedflow", Message: "m1"},
		{Pos: posA1, Analyzer: "detflow", Message: "m2"}, // exact duplicate
	}
	got := dedupSort(fset, diags)
	if len(got) != 3 {
		t.Fatalf("got %d findings after dedup, want 3", len(got))
	}
	wantOrder := []string{"m1", "m2", "m3"}
	for i, d := range got {
		if d.Message != wantOrder[i] {
			t.Errorf("position %d: got %q, want %q", i, d.Message, wantOrder[i])
		}
	}
}
