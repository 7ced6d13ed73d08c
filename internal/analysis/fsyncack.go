package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// FsyncAck returns the response-write analyzer. One recognizer of
// http.ResponseWriter write events, one "helper writes parameter w"
// summary and one forward dataflow per function body yield two findings:
//
//  1. Double commit, in every package: on any one CFG path a writer's
//     header must be committed at most once. The classic bug shape is a
//     handler that writes an error envelope and falls through instead of
//     returning — the success body then lands on top of the error status
//     and net/http logs "superfluous WriteHeader".
//  2. Ack before durable, in internal/serv and internal/dist: a handler
//     must not write a success response before the durable commit on
//     that path. The distributed exactly-once protocol rides on this
//     ordering — a worker treats an acked upload as committed, so a
//     coordinator that responds 200 and then fsyncs has promised
//     durability it does not yet have; a crash in the gap loses
//     acknowledged cells (DESIGN §10, fsync-before-ack).
//
// Write events: w.WriteHeader and the http.Error/NotFound/Redirect family
// are explicit commits; w.Write is an implicit one (it commits 200 on
// first use). Passing w to an in-package helper whose parameter the
// call-graph summary marks as written (writeJSON-shaped envelopes, through
// any number of helper hops) is an explicit commit. A second event on a
// path where the header is already committed reports only when it is
// explicit — WriteHeader-then-many-Writes (an SSE stream) is the normal
// shape and stays silent.
//
// Every event on the handler's own ResponseWriter parameter is an ack,
// except error envelopes: the http.Error family and helpers whose name
// contains "Error" ack a failure, and the durability contract only covers
// success acks. Durable commits are the errdrop root set (journal
// Commit/Sync, store writes, atomic renames) plus in-package functions
// PropagateUp summarizes as reaching one. A durable call reached while an
// ack is live is the violation, reported with the commit's chain witness.
// Calls in function literals and go statements run off the path and are
// not events.
//
// Post-ack best-effort persistence (a cache write after responding) is
// the audited exception: //accu:allow fsyncack -- <why>.
func FsyncAck() *Analyzer {
	a := &Analyzer{
		Name: "fsyncack",
		Doc: "flag HTTP handler paths that commit a response header twice " +
			"(an error envelope written and then fallen through), and, in " +
			"internal/serv and internal/dist, that write a success response " +
			"before the durable commit on that path (fsync-before-ack)",
	}
	a.Run = func(pass *Pass) error {
		cg := NewCallGraph(pass.Pkg, pass.Info, pass.Files)
		// writers[fn][i]: parameter i of fn is an http.ResponseWriter the
		// body (transitively) commits.
		writers := cg.ParamSummary(pass.Info, func(_ *types.Func, decl *ast.FuncDecl, p *types.Var) bool {
			return paramWritten(pass, decl, p)
		}, nil)

		var durable map[*types.Func]string
		ackScope := pkgPathIn(pass.Path, []string{"internal/serv", "internal/dist"})
		if ackScope {
			seeds := make(map[*types.Func]string)
			for _, fn := range cg.Funcs() {
				if desc := intrinsicDurable(pass, cg.DeclOf(fn)); desc != "" {
					seeds[fn] = desc
				}
			}
			durable = cg.PropagateUp(seeds, func(e CallEdge) bool { return !e.Async })
		}

		funcBodies(pass.Files, func(enclosing ast.Node, body *ast.BlockStmt) {
			var rw types.Object
			if ackScope {
				rw = responseWriterParam(pass, enclosing)
			}
			checkResponseWrites(pass, cg, writers, durable, rw, body)
		})
		return nil
	}
	return a
}

func isResponseWriter(t types.Type) bool {
	return isNamed(t, "net/http", "ResponseWriter")
}

// httpHeaderHelpers are the net/http package functions that commit the
// response header of their first argument.
var httpHeaderHelpers = map[string]bool{
	"Error": true, "NotFound": true, "Redirect": true, "ServeFile": true, "ServeContent": true,
}

// writeEvent is one response write: the writer it commits, whether the
// commit is explicit (a header write rather than a body Write), and
// whether it acknowledges success.
type writeEvent struct {
	w        types.Object
	explicit bool
	ack      bool
}

// writerIdent returns the object of expr when it is a plain
// ResponseWriter-typed identifier.
func writerIdent(pass *Pass, expr ast.Expr) types.Object {
	id, ok := ast.Unparen(expr).(*ast.Ident)
	if !ok {
		return nil
	}
	if o := pass.Info.Uses[id]; o != nil && isResponseWriter(o.Type()) {
		return o
	}
	return nil
}

// directWriteEvent recognizes a write that does not go through an
// in-package helper: w.WriteHeader / w.Write, or the http.Error family
// (an error envelope, so never an ack).
func directWriteEvent(pass *Pass, call *ast.CallExpr) (writeEvent, bool) {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok &&
		(sel.Sel.Name == "WriteHeader" || sel.Sel.Name == "Write") {
		if o := writerIdent(pass, sel.X); o != nil {
			return writeEvent{w: o, explicit: sel.Sel.Name == "WriteHeader", ack: true}, true
		}
	}
	if f := calleeFunc(pass, call); f != nil && f.Pkg() != nil &&
		f.Pkg().Path() == "net/http" && httpHeaderHelpers[f.Name()] && len(call.Args) > 0 {
		if o := writerIdent(pass, call.Args[0]); o != nil {
			return writeEvent{w: o, explicit: true}, true
		}
	}
	return writeEvent{}, false
}

// responseWriteEvent extends directWriteEvent with in-package helpers: a
// call passing a writer to a parameter the summary marks as written is an
// explicit commit of that writer, and an ack unless the helper is an
// error envelope.
func responseWriteEvent(pass *Pass, cg *CallGraph, writers map[*types.Func]map[int]bool, call *ast.CallExpr) (writeEvent, bool) {
	if ev, ok := directWriteEvent(pass, call); ok {
		return ev, true
	}
	callee := cg.StaticCallee(pass.Info, call)
	if callee == nil {
		return writeEvent{}, false
	}
	for j, arg := range call.Args {
		if !writers[callee][j] {
			continue
		}
		if o := writerIdent(pass, arg); o != nil {
			return writeEvent{w: o, explicit: true, ack: !strings.Contains(callee.Name(), "Error")}, true
		}
	}
	return writeEvent{}, false
}

// paramWritten is the intrinsic summary: the body writes parameter p
// through a direct event.
func paramWritten(pass *Pass, decl *ast.FuncDecl, p *types.Var) bool {
	if decl == nil || decl.Body == nil || !isResponseWriter(p.Type()) {
		return false
	}
	found := false
	ast.Inspect(decl.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if ev, ok := directWriteEvent(pass, call); ok && ev.w == p {
				found = true
			}
		}
		return !found
	})
	return found
}

// responseWriterParam returns the object of enclosing's
// http.ResponseWriter parameter, or nil when it has none.
func responseWriterParam(pass *Pass, enclosing ast.Node) types.Object {
	var ft *ast.FuncType
	switch e := enclosing.(type) {
	case *ast.FuncDecl:
		ft = e.Type
	case *ast.FuncLit:
		ft = e.Type
	default:
		return nil
	}
	if ft.Params == nil {
		return nil
	}
	for _, field := range ft.Params.List {
		for _, name := range field.Names {
			if obj := pass.Info.Defs[name]; obj != nil && isResponseWriter(obj.Type()) {
				return obj
			}
		}
	}
	return nil
}

// ackFact marks "a success response has been written to the handler's
// ResponseWriter on this path". Commit facts are keyed by the writer
// object itself.
type ackFact struct{}

// checkResponseWrites runs the response-write dataflow over one body.
// The fixpoint pass records first-commit and ack facts; a second
// deterministic walk over each block replays the transfer with
// reporting enabled (the engine re-runs transfers, so they must stay
// side-effect-free). rw is the handler's writer when the body is in
// ack-ordering scope, nil otherwise.
func checkResponseWrites(pass *Pass, cg *CallGraph, writers map[*types.Func]map[int]bool, durable map[*types.Func]string, rw types.Object, body *ast.BlockStmt) {
	cfg := NewCFG(body)
	apply := func(n ast.Node, facts Facts, report bool) {
		walkBlockNode(n, false, func(m ast.Node) bool {
			if _, ok := m.(*ast.GoStmt); ok {
				return false
			}
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			ev, ok := responseWriteEvent(pass, cg, writers, call)
			if !ok {
				return true
			}
			if prev, committed := facts[ev.w]; !committed {
				facts[ev.w] = call.Pos()
			} else if ev.explicit && report {
				pass.Reportf(call.Pos(),
					"response header already committed on this path (first written at line %d); add a return after writing the error envelope",
					pass.Fset.Position(prev).Line)
			}
			if ev.ack && ev.w == rw {
				facts[ackFact{}] = call.Pos()
			}
			return true
		})
	}
	in, _ := cfg.ForwardMay(func(n ast.Node, facts Facts) { apply(n, facts, false) })
	for _, b := range cfg.Blocks {
		facts := in[b].clone()
		for _, n := range b.Nodes {
			if ackPos, acked := facts[ackFact{}]; acked {
				reportDurableAfterAck(pass, cg, durable, n, ackPos)
			}
			apply(n, facts, true)
		}
	}
}

// reportDurableAfterAck reports the durable calls inside one block node,
// which runs after the ack at ackPos.
func reportDurableAfterAck(pass *Pass, cg *CallGraph, durable map[*types.Func]string, n ast.Node, ackPos token.Pos) {
	ast.Inspect(n, func(m ast.Node) bool {
		switch m.(type) {
		case *ast.FuncLit, *ast.GoStmt, *ast.DeferStmt:
			return false
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		desc, ok := durableCall(pass, call)
		if !ok {
			if callee := cg.StaticCallee(pass.Info, call); callee != nil {
				if w, has := durable[callee]; has {
					desc, ok = funcDisplayName(callee)+" → "+w, true
				}
			}
		}
		if !ok {
			return true
		}
		pass.Reportf(call.Pos(),
			"durable commit %s runs after the response was already written (acked at line %d); commit before acknowledging so a crash in the gap cannot lose acked work",
			desc, pass.Fset.Position(ackPos).Line)
		return true
	})
}
