package analysis

import (
	"go/ast"
	"go/types"
)

// CtxFlow returns the context-and-timer analyzer for code that waits:
// outbound requests, retry/poll loops and the timers that pace them.
// Four checks:
//
//  1. Requests built or sent without a context: http.NewRequest (use
//     NewRequestWithContext), the package-level http.Get/Post/PostForm/
//     Head conveniences and their (*http.Client) method twins. A request
//     with no context cannot be cancelled — a worker stuck in a dead
//     coordinator's dial keeps its lease alive past expiry.
//  2. Retry/poll loops that never consult their context: a loop that
//     paces itself (time.Sleep, time.After, time.Tick) inside a function
//     that has a context.Context in scope, yet mentions no context
//     anywhere in the loop. Such a loop survives cancellation until its
//     current backoff elapses — or forever. Mentioning any in-scope
//     context in the loop (ctx.Done(), ctx.Err(), passing ctx to a
//     callee) satisfies the check; the analyzer does not prove the
//     callee looks at it, a documented soundness limit.
//  3. time.After inside a loop: each iteration allocates a fresh timer
//     that is not collected until it fires, so a tight select-loop with
//     a long timeout accumulates them — the TTL-reaper bug shape. The
//     loop wants one time.NewTimer/NewTicker hoisted out and stopped.
//  4. time.Tick anywhere: the returned channel's Ticker has no Stop
//     handle at all, so it runs (and holds its goroutine's timer) for
//     the life of the process. Under go 1.22 (this module's language
//     version) that is an unconditional leak; use time.NewTicker with
//     defer Stop, as internal/dist's lease reaper does. The finding
//     carries a machine-applicable NewTicker(d).C rewrite.
//
// Checks 2 and 3 share one loop walk. A loop is charged only for the
// calls it makes itself: a nested loop or function literal paces (and
// leaks) on its own account — the literal may run once, long after the
// loop.
func CtxFlow() *Analyzer {
	a := &Analyzer{
		Name: "ctxflow",
		Doc: "require outgoing HTTP requests to carry a context " +
			"(NewRequestWithContext) and pacing retry/poll loops to consult " +
			"ctx.Done()/ctx.Err() when a context is in scope; flag time.After " +
			"inside loops and time.Tick anywhere (timers with no Stop)",
	}
	a.Run = func(pass *Pass) error {
		for _, file := range pass.Files {
			ast.Inspect(file, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				checkNoCtxRequest(pass, call)
				if timeFuncName(pass, call) == "Tick" {
					pass.ReportfFix(call.Pos(), tickFix(call),
						"time.Tick leaks its Ticker (the channel has no Stop handle); use time.NewTicker and defer Stop, as in the reaper pattern")
				}
				return true
			})
		}
		funcBodies(pass.Files, func(enclosing ast.Node, body *ast.BlockStmt) {
			checkLoops(pass, enclosing, body)
		})
		return nil
	}
	return a
}

// noCtxHTTPCalls are the request conveniences — package functions and
// *http.Client methods alike — that send without a caller context.
var noCtxHTTPCalls = map[string]bool{"Get": true, "Post": true, "PostForm": true, "Head": true}

func checkNoCtxRequest(pass *Pass, call *ast.CallExpr) {
	f := calleeFunc(pass, call)
	if f == nil || f.Pkg() == nil || f.Pkg().Path() != "net/http" {
		return
	}
	sig, ok := f.Type().(*types.Signature)
	if !ok {
		return
	}
	switch {
	case sig.Recv() == nil && f.Name() == "NewRequest":
		pass.Reportf(call.Pos(),
			"http.NewRequest builds a request without a context; use http.NewRequestWithContext so the call can be cancelled")
	case sig.Recv() == nil && noCtxHTTPCalls[f.Name()]:
		pass.Reportf(call.Pos(),
			"http.%s sends a request that cannot be cancelled; build it with http.NewRequestWithContext and send via a Client",
			f.Name())
	case sig.Recv() != nil && namedRecvName(sig.Recv().Type()) == "Client" && noCtxHTTPCalls[f.Name()]:
		pass.Reportf(call.Pos(),
			"(*http.Client).%s sends a request without a context; build it with http.NewRequestWithContext and use Do",
			f.Name())
	}
}

func isContextType(t types.Type) bool {
	return isNamed(t, "context", "Context")
}

// checkLoops walks every loop of one function body once: it flags each
// time.After the loop itself calls, and, when a context is in scope,
// a pacing loop that never consults it. Nested function literals are
// handled by their own funcBodies visit (a captured outer context shows
// up there through Uses).
func checkLoops(pass *Pass, enclosing ast.Node, body *ast.BlockStmt) {
	ctxObjs := make(map[types.Object]bool)
	var ft *ast.FuncType
	switch e := enclosing.(type) {
	case *ast.FuncDecl:
		ft = e.Type
	case *ast.FuncLit:
		ft = e.Type
	}
	if ft != nil && ft.Params != nil {
		for _, field := range ft.Params.List {
			for _, name := range field.Names {
				if obj := pass.Info.Defs[name]; obj != nil && isContextType(obj.Type()) {
					ctxObjs[obj] = true
				}
			}
		}
	}
	walkBlockNode(body, false, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			obj := pass.Info.Defs[id]
			if obj == nil {
				obj = pass.Info.Uses[id]
			}
			if obj != nil && isContextType(obj.Type()) {
				ctxObjs[obj] = true
			}
		}
		return true
	})

	walkBlockNode(body, false, func(n ast.Node) bool {
		switch n.(type) {
		case *ast.ForStmt, *ast.RangeStmt:
		default:
			return true
		}
		paces := false
		loopTimerCalls(pass, n, func(call *ast.CallExpr, name string, inGo bool) {
			if name == "After" {
				pass.Reportf(call.Pos(),
					"time.After inside a loop allocates a timer every iteration that survives until it fires; hoist a time.NewTimer or NewTicker out of the loop and Stop it")
			}
			// A goroutine started per iteration paces itself, not the
			// loop.
			paces = paces || !inGo
		})
		// No context in scope: requiring one is the caller's refactor,
		// not this loop's bug.
		if paces && len(ctxObjs) > 0 && !loopMentionsCtx(pass, n, ctxObjs) {
			pass.Reportf(n.Pos(),
				"this loop paces itself with a timer but never consults its context; select on ctx.Done() (or check ctx.Err()) each iteration so cancellation can stop the retry/poll loop")
		}
		return true
	})
}

// pacingCalls are the time package calls that make a loop a retry/poll
// loop.
var pacingCalls = map[string]bool{"Sleep": true, "After": true, "Tick": true}

// timeFuncName returns the name of the time package function call
// invokes, or "" when it is anything else. Methods are excluded
// deliberately: time.Time.After is a comparison, not a timer.
func timeFuncName(pass *Pass, call *ast.CallExpr) string {
	f := calleeFunc(pass, call)
	if f == nil || f.Pkg() == nil || f.Pkg().Path() != "time" || !isPackageFunc(f) {
		return ""
	}
	return f.Name()
}

// loopTimerCalls visits the pacing calls the loop makes itself, header
// included: nested loops and function literals are skipped, and calls
// evaluated by a go statement are marked inGo.
func loopTimerCalls(pass *Pass, loop ast.Node, visit func(call *ast.CallExpr, name string, inGo bool)) {
	var walk func(root ast.Node, inGo bool)
	walk = func(root ast.Node, inGo bool) {
		ast.Inspect(root, func(n ast.Node) bool {
			if n == root {
				return true
			}
			switch n := n.(type) {
			case *ast.ForStmt, *ast.RangeStmt, *ast.FuncLit:
				return false
			case *ast.GoStmt:
				walk(n, true)
				return false
			case *ast.CallExpr:
				if name := timeFuncName(pass, n); pacingCalls[name] {
					visit(n, name, inGo)
				}
			}
			return true
		})
	}
	walk(loop, false)
}

// tickFix rewrites time.Tick(d) to time.NewTicker(d).C — the exact same
// channel, but with a named constructor a later edit can hoist to grab
// the Stop handle. Behavior-preserving, so it is machine-applicable.
func tickFix(call *ast.CallExpr) []SuggestedFix {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	return []SuggestedFix{{
		Message:           "replace time.Tick(d) with time.NewTicker(d).C, then hoist the ticker and defer Stop",
		MachineApplicable: true,
		Edits: []TextEdit{
			{Pos: sel.Sel.Pos(), End: sel.Sel.End(), NewText: "NewTicker"},
			{Pos: call.End(), End: call.End(), NewText: ".C"},
		},
	}}
}

// loopMentionsCtx reports whether any in-scope context object is
// mentioned anywhere in the loop, nested literals included (a callback
// may be the one checking ctx).
func loopMentionsCtx(pass *Pass, loop ast.Node, ctxObjs map[types.Object]bool) bool {
	mentions := false
	ast.Inspect(loop, func(n ast.Node) bool {
		if mentions {
			return false
		}
		if id, ok := n.(*ast.Ident); ok && ctxObjs[pass.Info.Uses[id]] {
			mentions = true
		}
		return true
	})
	return mentions
}
