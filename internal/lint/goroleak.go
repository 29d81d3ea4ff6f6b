package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// GoroLeak requires every goroutine spawned in a long-lived package to
// have a shutdown path. The serving tier's processes run for weeks; a
// goroutine whose only loop can never observe a stop signal outlives
// its owner's Close, keeps its captures reachable forever, and — when
// the loop polls — keeps burning a core after the component is gone.
// PR 6's router health prober and PR 1's collector accept loop both got
// this right by hand (select on a closing channel, WaitGroup-joined
// Close); this rule makes the pattern a checked contract before the
// ROADMAP's sharding work multiplies the goroutine count.
//
// The check is shape-based. A `go` statement is a finding when the
// spawned body contains an unconditional `for {}` loop none of whose
// iterations can exit through a stop signal, and the spawn is not
// WaitGroup-joined. Accepted stop shapes, per loop:
//
//   - a select case that receives and then returns or breaks
//     (`case <-done: return`, `case <-ctx.Done(): return`);
//   - a plain receive somewhere in the loop paired with a return/break
//     (`if _, ok := <-ch; !ok { return }`);
//   - ranging over a channel (the loop ends when the sender closes it).
//
// Conditional loops (`for cond {}`, `for range slice`) are bounded or
// caller-terminated and pass. A spawn preceded by wg.Add in the same
// function also passes: the WaitGroup join means some Close/Stop owns
// the goroutine's lifetime (severing a connection it blocks on, say) —
// a contract the region model cannot see but the join makes explicit.
//
// Cross-package and cross-function spawns resolve through facts: the
// per-package phase exports a SpawnHazardFact for every function whose
// own body contains a stop-less unconditional loop; a `go pkg.F(...)`
// consults F's fact (dependency order guarantees it exists by then).
var GoroLeak = &Analyzer{
	Name: "goroleak",
	Doc:  "goroutines in long-lived packages must have a stop path (done channel, context, or WaitGroup join)",
	Invariant: "every unconditional loop in a spawned goroutine can observe a stop signal, " +
		"or the spawn is WaitGroup-joined so Close/Stop owns its lifetime",
	Scope: []string{"serve", "replica", "router", "fmsnet", "archive", "wal", "predict", "core"},
	Run:   runGoroLeak,
}

// SpawnHazardFact marks a function whose body loops forever without a
// stop signal: spawning it as a goroutine leaks it.
type SpawnHazardFact struct{}

func (*SpawnHazardFact) AFact() {}

func runGoroLeak(pass *Pass) {
	// Phase A: export hazard facts for this package's functions, and
	// remember local bodies so same-package spawns resolve directly.
	bodies := make(map[*types.Func]*ast.BlockStmt)
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pass.Info.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			bodies[fn] = fd.Body
			if hasStoplessLoop(pass, fd.Body) {
				pass.ExportFact(fn, &SpawnHazardFact{})
			}
		}
	}

	// Phase B: check every go statement.
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			fd, ok := n.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				return true
			}
			checkGoStmts(pass, fd.Body, bodies)
			return false
		})
	}
}

// checkGoStmts walks one function body flagging leaky go statements.
// wgAdded tracks whether a WaitGroup Add call has been seen earlier in
// the same body — the join discipline that exempts a spawn.
func checkGoStmts(pass *Pass, body *ast.BlockStmt, bodies map[*types.Func]*ast.BlockStmt) {
	wgAddPos := collectWaitGroupAdds(pass, body)
	ast.Inspect(body, func(n ast.Node) bool {
		gs, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		if precededByAdd(wgAddPos, gs) {
			return true
		}
		switch fun := gs.Call.Fun.(type) {
		case *ast.FuncLit:
			if fun.Body != nil && hasStoplessLoop(pass, fun.Body) {
				pass.Reportf(gs.Pos(), "goroutine loops forever with no stop path: select on a done channel/context or join it with a WaitGroup-backed Close")
			}
		default:
			var callee *types.Func
			switch f := gs.Call.Fun.(type) {
			case *ast.SelectorExpr:
				callee, _ = pass.Info.Uses[f.Sel].(*types.Func)
			case *ast.Ident:
				callee, _ = pass.Info.Uses[f].(*types.Func)
			}
			if callee == nil {
				return true
			}
			if b, ok := bodies[callee]; ok {
				if hasStoplessLoop(pass, b) {
					pass.Reportf(gs.Pos(), "goroutine %s loops forever with no stop path: select on a done channel/context or join it with a WaitGroup-backed Close", callee.Name())
				}
				return true
			}
			for _, f := range pass.FactsOf(callee) {
				if _, ok := f.(*SpawnHazardFact); ok {
					pass.Reportf(gs.Pos(), "goroutine %s loops forever with no stop path: select on a done channel/context or join it with a WaitGroup-backed Close", callee.FullName())
				}
			}
		}
		return true
	})
}

// collectWaitGroupAdds records the positions of (*sync.WaitGroup).Add
// calls in body (outside nested literals).
func collectWaitGroupAdds(pass *Pass, body *ast.BlockStmt) []int {
	var out []int
	inspectSkipFuncLits(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if funcFullName(pass.Info, sel) == "(*sync.WaitGroup).Add" {
				out = append(out, int(call.Pos()))
			}
		}
		return true
	})
	return out
}

func precededByAdd(addPos []int, gs *ast.GoStmt) bool {
	for _, p := range addPos {
		if p < int(gs.Pos()) {
			return true
		}
	}
	return false
}

// hasStoplessLoop reports whether body contains an unconditional for
// loop with no stop signal. Nested function literals are separate
// schedules and are not descended into.
func hasStoplessLoop(pass *Pass, body *ast.BlockStmt) bool {
	hazard := false
	inspectSkipFuncLits(body, func(n ast.Node) bool {
		if hazard {
			return false
		}
		fs, ok := n.(*ast.ForStmt)
		if !ok || fs.Cond != nil {
			return true
		}
		if !loopHasStopSignal(pass, fs.Body) {
			hazard = true
			return false
		}
		return true
	})
	return hazard
}

// loopHasStopSignal scans one unconditional loop body for an accepted
// stop shape.
func loopHasStopSignal(pass *Pass, body *ast.BlockStmt) bool {
	stop := false
	sawRecv := false
	sawExit := false
	inspectSkipFuncLits(body, func(n ast.Node) bool {
		if stop {
			return false
		}
		switch x := n.(type) {
		case *ast.SelectStmt:
			for _, clause := range x.Body.List {
				cc, ok := clause.(*ast.CommClause)
				if !ok || !commIsReceive(cc) {
					continue
				}
				if bodyExits(cc.Body) {
					stop = true
					return false
				}
			}
		case *ast.UnaryExpr:
			if x.Op == token.ARROW {
				sawRecv = true
			}
		case *ast.RangeStmt:
			if t := pass.Info.Types[x.X].Type; t != nil {
				if _, isChan := t.Underlying().(*types.Chan); isChan {
					// Ranging a channel inside the loop still parks the
					// iteration on a close-able signal.
					sawRecv = true
				}
			}
		case *ast.ReturnStmt:
			sawExit = true
		case *ast.BranchStmt:
			if x.Tok == token.BREAK {
				sawExit = true
			}
		}
		return true
	})
	return stop || (sawRecv && sawExit)
}

// commIsReceive reports whether a select clause receives (rather than
// sends or is the default case).
func commIsReceive(cc *ast.CommClause) bool {
	switch s := cc.Comm.(type) {
	case *ast.ExprStmt:
		u, ok := s.X.(*ast.UnaryExpr)
		return ok && u.Op == token.ARROW
	case *ast.AssignStmt:
		if len(s.Rhs) != 1 {
			return false
		}
		u, ok := s.Rhs[0].(*ast.UnaryExpr)
		return ok && u.Op == token.ARROW
	}
	return false
}

// bodyExits reports whether a statement list contains a return or break.
func bodyExits(stmts []ast.Stmt) bool {
	exits := false
	for _, s := range stmts {
		ast.Inspect(s, func(n ast.Node) bool {
			if exits {
				return false
			}
			switch x := n.(type) {
			case *ast.FuncLit:
				return false
			case *ast.ReturnStmt:
				exits = true
			case *ast.BranchStmt:
				if x.Tok == token.BREAK {
					exits = true
				}
			}
			return !exits
		})
		if exits {
			return true
		}
	}
	return false
}
