package analysis

import (
	"go/ast"
	"go/types"
)

// Deterministic-package scope for the accuvet suite, as module-relative
// import-path suffixes.
var (
	// strictPackages hold the record path: everything they compute must
	// be a pure function of the rng.Seed tree. No wall clock, no global
	// randomness, no environment reads.
	strictPackages = []string{
		"internal/core",
		"internal/osn",
		"internal/gen",
		"internal/theory",
	}

	// timingPackages run or observe the record path but are allowed to
	// read the clock for spans and profiles. Global randomness and
	// environment reads remain forbidden.
	timingPackages = []string{
		"internal/obs",
		"internal/prof",
		"internal/sim",
		// Fault injection stalls on the clock by design; its randomness
		// still flows through the seed tree.
		"internal/sim/fault",
	}

	// rngPackage is the one place allowed to construct generators.
	rngPackage = "internal/rng"
)

// clockFuncs are the time-package functions that read the wall clock or
// schedule against it. Pure constructors (time.Date, time.Unix,
// time.ParseDuration) stay legal everywhere.
var clockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"Tick": true, "After": true, "AfterFunc": true,
	"NewTimer": true, "NewTicker": true,
}

// envFuncs are the os-package functions that make behaviour depend on the
// process environment.
var envFuncs = map[string]bool{
	"Getenv": true, "LookupEnv": true, "Environ": true, "ExpandEnv": true,
}

// Detflow returns the determinism analyzer. It works in two layers over
// one scope table:
//
//  1. Source ban. In the strict packages every wall-clock read, every use
//     of the global math/rand generators, ad-hoc generator construction
//     and every environment read is a finding. In the timing packages
//     the clock is allowed (obs spans, profiles, lease TTLs) but the
//     randomness and environment bans still apply. internal/rng itself is
//     exempt — it is the sanctioned constructor.
//
//  2. Flow check. In the strict, timing and internal/stats packages, the
//     taint engine (taint.go) tracks clock, env, global-rand and
//     map-iteration-order values interprocedurally and reports any that
//     reaches a deterministic sink — an input whose bytes the
//     resume/merge invariants pin:
//
//     (sim.RecordDigest).Collect   — the bit-identity record-set digest
//     (sim.Summary).Collect        — the mergeable result summary
//     (stats.Sketch).Add           — the byte-identical quantile sketch
//     (stats.Welford).Add          — the streaming moments accumulator
//     (stats.Series).Add           — the checkpoint-curve accumulator
//
// The flow layer is what makes the timing packages checkable at all: a
// clock read is legal there, so only its reaching a RecordDigest is a
// bug. Flow diagnostics carry the bounded witness chain
// ("d ← jitter ← time.Now") so the provenance is readable without
// re-deriving the flow by hand. Sorted-after-range map reads and other
// intentional uses are the audited exception: //accu:allow detflow -- <why>.
func Detflow() *Analyzer {
	a := &Analyzer{
		Name: "detflow",
		Doc: "forbid clock/env/global-rand reads in the record-path packages " +
			"(clock allowed in the timing packages) and track such values, plus " +
			"map order, into digest, sketch and summary inputs",
	}
	a.Run = func(pass *Pass) error {
		if pkgPathIs(pass.Path, rngPackage) {
			return nil
		}
		strict := pkgPathIn(pass.Path, strictPackages)
		ban := strict || pkgPathIn(pass.Path, timingPackages)
		if !ban && !pkgPathIs(pass.Path, "internal/stats") {
			return nil
		}
		eng := NewTaintEngine(pass, NewCallGraph(pass.Pkg, pass.Info, pass.Files))
		for _, f := range pass.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Ident:
					if ban {
						checkBannedSource(pass, n, strict)
					}
				case *ast.CallExpr:
					checkSinkFlow(pass, eng, n)
				}
				return true
			})
		}
		return nil
	}
	return a
}

// checkBannedSource reports a use of a nondeterminism source. Methods
// (e.g. (*rand.Rand).IntN on an explicitly seeded generator) are the
// sanctioned pattern and never match.
func checkBannedSource(pass *Pass, id *ast.Ident, strict bool) {
	fn, ok := pass.Info.Uses[id].(*types.Func)
	if !ok || fn.Pkg() == nil || !isPackageFunc(fn) {
		return
	}
	switch fn.Pkg().Path() {
	case "time":
		if strict && clockFuncs[fn.Name()] {
			pass.Reportf(id.Pos(),
				"time.%s reads the clock in deterministic package %s; timing belongs in the obs/prof layers",
				fn.Name(), pass.Path)
		}
	case "os":
		if envFuncs[fn.Name()] {
			pass.Reportf(id.Pos(),
				"os.%s makes %s depend on the process environment; thread configuration through explicit parameters",
				fn.Name(), pass.Path)
		}
	case "math/rand", "math/rand/v2":
		if fn.Name() == "New" {
			pass.Reportf(id.Pos(),
				"rand.New constructs an ad-hoc generator in %s; construct generators only via rng.Seed.Rand",
				pass.Path)
		} else {
			pass.Reportf(id.Pos(),
				"%s.%s bypasses the internal/rng seed tree in %s; all randomness must derive from an rng.Seed",
				fn.Pkg().Path(), fn.Name(), pass.Path)
		}
	}
}

// checkSinkFlow reports every tainted argument of a deterministic-sink
// call.
func checkSinkFlow(pass *Pass, eng *TaintEngine, call *ast.CallExpr) {
	sink, ok := detSink(pass, call)
	if !ok {
		return
	}
	for _, arg := range call.Args {
		if t := eng.ExprTaint(arg); t != nil {
			pass.Reportf(arg.Pos(),
				"%s-tainted value reaches deterministic sink %s (flow: %s); derive it from the seed tree or annotate the audited exception",
				t.Kind, sink, t.Witness)
		}
	}
}

// detSinkMethods maps module package suffix → receiver named type →
// method names whose inputs are pinned by the determinism invariants.
var detSinkMethods = map[string]map[string]map[string]bool{
	"internal/sim": {
		"RecordDigest": {"Collect": true},
		"Summary":      {"Collect": true},
	},
	"internal/stats": {
		"Sketch":  {"Add": true},
		"Welford": {"Add": true},
		"Series":  {"Add": true},
	},
}

// detSink reports whether call invokes a deterministic sink, with a
// display name for the diagnostic.
func detSink(pass *Pass, call *ast.CallExpr) (string, bool) {
	f := calleeFunc(pass, call)
	if f == nil || f.Pkg() == nil {
		return "", false
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", false
	}
	recv := namedRecvName(sig.Recv().Type())
	for suffix, types := range detSinkMethods {
		if pkgPathIs(f.Pkg().Path(), suffix) && types[recv][f.Name()] {
			return "(" + recv + ")." + f.Name(), true
		}
	}
	return "", false
}
