package analysis

import (
	"bytes"
	"encoding/json"
	"go/token"
	"testing"
)

// sarifFixture builds a FileSet with two files and a mixed batch of
// diagnostics: two live findings with identical (file, analyzer,
// message) — the fingerprint-collision case — one live finding in a
// second file, and one suppressed finding.
func sarifFixture() (*token.FileSet, []Diagnostic) {
	fset := token.NewFileSet()
	fa := fset.AddFile("internal/serv/a.go", -1, 1000)
	fb := fset.AddFile("internal/dist/b.go", -1, 1000)
	return fset, []Diagnostic{
		{Pos: fa.Pos(10), Analyzer: "lockedio", Message: "blocking call os.WriteFile while s.mu.Lock() is held"},
		{Pos: fa.Pos(500), Analyzer: "lockedio", Message: "blocking call os.WriteFile while s.mu.Lock() is held"},
		{Pos: fb.Pos(42), Analyzer: "httpbody", Message: "response body is never closed"},
		{Pos: fb.Pos(700), Analyzer: "ctxflow", Message: "time.Tick leaks its Ticker", Suppressed: true},
	}
}

func decodeSARIF(t *testing.T, data []byte) sarifLog {
	t.Helper()
	var log sarifLog
	if err := json.Unmarshal(data, &log); err != nil {
		t.Fatalf("emitted SARIF does not round-trip: %v", err)
	}
	return log
}

// TestWriteSARIFStructure checks the envelope: schema/version pinned,
// one run, the full suite in the rules table, every result's ruleIndex
// pointing at its own rule.
func TestWriteSARIFStructure(t *testing.T) {
	fset, diags := sarifFixture()
	suite := NewSuite()
	var buf bytes.Buffer
	if err := WriteSARIF(&buf, fset, diags, suite); err != nil {
		t.Fatal(err)
	}
	log := decodeSARIF(t, buf.Bytes())
	if log.Version != "2.1.0" || log.Schema != sarifSchema {
		t.Errorf("version/schema = %q/%q", log.Version, log.Schema)
	}
	if len(log.Runs) != 1 {
		t.Fatalf("runs = %d, want 1", len(log.Runs))
	}
	run := log.Runs[0]
	if run.Tool.Driver.Name != "accuvet" {
		t.Errorf("driver = %q", run.Tool.Driver.Name)
	}
	if len(run.Tool.Driver.Rules) != len(suite) {
		t.Errorf("rules = %d, want %d (whole suite, even analyzers that did not fire)", len(run.Tool.Driver.Rules), len(suite))
	}
	if len(run.Results) != len(diags) {
		t.Fatalf("results = %d, want %d", len(run.Results), len(diags))
	}
	for i, res := range run.Results {
		if res.RuleIndex < 0 || res.RuleIndex >= len(run.Tool.Driver.Rules) {
			t.Fatalf("result %d: ruleIndex %d out of range", i, res.RuleIndex)
		}
		if got := run.Tool.Driver.Rules[res.RuleIndex].ID; got != res.RuleID {
			t.Errorf("result %d: ruleIndex points at %q, ruleId says %q", i, got, res.RuleID)
		}
		if len(res.Locations) != 1 || res.Locations[0].PhysicalLocation.Region.StartLine == 0 {
			t.Errorf("result %d: missing physical location", i)
		}
	}
}

// TestWriteSARIFSuppressions: only the //accu:allow-covered diagnostic
// carries an inSource suppression.
func TestWriteSARIFSuppressions(t *testing.T) {
	fset, diags := sarifFixture()
	var buf bytes.Buffer
	if err := WriteSARIF(&buf, fset, diags, NewSuite()); err != nil {
		t.Fatal(err)
	}
	log := decodeSARIF(t, buf.Bytes())
	suppressed := 0
	for _, res := range log.Runs[0].Results {
		if len(res.Suppressions) > 0 {
			suppressed++
			if res.RuleID != "ctxflow" {
				t.Errorf("unexpected suppression on %s result", res.RuleID)
			}
			if res.Suppressions[0].Kind != "inSource" {
				t.Errorf("suppression kind = %q, want inSource", res.Suppressions[0].Kind)
			}
		}
	}
	if suppressed != 1 {
		t.Errorf("suppressed results = %d, want 1", suppressed)
	}
}

// TestWriteSARIFFingerprints: fingerprints are present, distinct even
// for same-message findings in one file (occurrence counter), and
// stable across emissions.
func TestWriteSARIFFingerprints(t *testing.T) {
	fset, diags := sarifFixture()
	emit := func() []sarifResult {
		var buf bytes.Buffer
		if err := WriteSARIF(&buf, fset, diags, NewSuite()); err != nil {
			t.Fatal(err)
		}
		return decodeSARIF(t, buf.Bytes()).Runs[0].Results
	}
	first, second := emit(), emit()
	seen := make(map[string]bool)
	for i, res := range first {
		fp := res.PartialFingerprints["accuvetFingerprint/v1"]
		if fp == "" {
			t.Fatalf("result %d: missing fingerprint", i)
		}
		if seen[fp] {
			t.Errorf("result %d: duplicate fingerprint %s", i, fp)
		}
		seen[fp] = true
		if got := second[i].PartialFingerprints["accuvetFingerprint/v1"]; got != fp {
			t.Errorf("result %d: fingerprint not stable across emissions: %s vs %s", i, fp, got)
		}
	}
}

// TestWriteSARIFUnknownAnalyzer: a diagnostic from an analyzer outside
// the provided suite grows the rules table instead of panicking — tests
// compose ad-hoc suites.
func TestWriteSARIFUnknownAnalyzer(t *testing.T) {
	fset := token.NewFileSet()
	f := fset.AddFile("x.go", -1, 100)
	diags := []Diagnostic{{Pos: f.Pos(1), Analyzer: "adhoc", Message: "m"}}
	var buf bytes.Buffer
	if err := WriteSARIF(&buf, fset, diags, nil); err != nil {
		t.Fatal(err)
	}
	log := decodeSARIF(t, buf.Bytes())
	run := log.Runs[0]
	if len(run.Tool.Driver.Rules) != 1 || run.Tool.Driver.Rules[0].ID != "adhoc" {
		t.Fatalf("rules = %+v, want the ad-hoc analyzer registered on the fly", run.Tool.Driver.Rules)
	}
	if run.Results[0].RuleIndex != 0 {
		t.Errorf("ruleIndex = %d, want 0", run.Results[0].RuleIndex)
	}
}
