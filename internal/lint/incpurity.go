package lint

import (
	"go/ast"
	"go/types"
)

// Incpurity enforces the incremental section engine's state contract on
// fold functions (DESIGN §9): Update must treat its prev state and the
// shared fold facts it reads as immutable — a snapshot that rendered
// epoch N may still be read while epoch N+1 folds — and must not let map
// iteration order reach carried state. Mutating through prev or a fact
// (or an alias of either) is the bug class the engine's byte-identity
// test only catches when a fold races a render; this rule catches it at
// review time.
var Incpurity = &Analyzer{
	Name: "incpurity",
	Doc:  "incremental Update must not mutate prev or fact state nor fold map order into state",
	Invariant: "Update(prev, [facts,] ix, newRows) returns prev unchanged or a fresh top-level state; " +
		"prev, the facts and their aliases are never written through, and state never absorbs unsorted map order",
	Scope: []string{"core", "report", "mine", "predict"},
	Run:   runIncpurity,
}

func runIncpurity(pass *Pass) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			var ftype *ast.FuncType
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				ftype, body = fn.Type, fn.Body
			case *ast.FuncLit:
				ftype, body = fn.Type, fn.Body
			default:
				return true
			}
			if body == nil {
				return true
			}
			if roots := updateRoots(pass.Info, ftype); len(roots) > 0 {
				checkUpdateBody(pass, body, roots)
			}
			return true
		})
	}
}

// updateRoots recognizes the fold-function shape — three parameters
// (prev, ix, newRows) or four (prev, facts, ix, newRows), and two
// results, with SectionState first in both lists — and returns the
// objects of the read-only parameters: prev, and facts when present.
func updateRoots(info *types.Info, ftype *ast.FuncType) []types.Object {
	if ftype.Params == nil || ftype.Results == nil {
		return nil
	}
	n := countFields(ftype.Params)
	if (n != 3 && n != 4) || countFields(ftype.Results) != 2 {
		return nil
	}
	first := ftype.Params.List[0]
	if len(first.Names) == 0 {
		return nil // unnamed parameters cannot be written through
	}
	if !isSectionState(info.Types[first.Type].Type) {
		return nil
	}
	if !isSectionState(info.Types[ftype.Results.List[0].Type].Type) {
		return nil
	}
	var names []*ast.Ident
	for _, f := range ftype.Params.List {
		names = append(names, f.Names...)
	}
	// The read-only parameters lead: prev alone in the three-parameter
	// shape, prev and facts in the four-parameter one.
	var roots []types.Object
	for _, name := range names[:n-2] {
		if obj := info.Defs[name]; obj != nil && name.Name != "_" {
			roots = append(roots, obj)
		}
	}
	return roots
}

func countFields(fl *ast.FieldList) int {
	n := 0
	for _, f := range fl.List {
		if len(f.Names) == 0 {
			n++
		} else {
			n += len(f.Names)
		}
	}
	return n
}

// isSectionState matches the engine's state interface by name, so the
// rule follows the type wherever the fold function is declared.
func isSectionState(t types.Type) bool {
	named, ok := t.(*types.Named)
	return ok && named.Obj().Name() == "SectionState"
}

func checkUpdateBody(pass *Pass, body *ast.BlockStmt, roots []types.Object) {
	// The roots (prev, and facts) plus every alias bound by `st := prev`,
	// `st, ok := prev.(*T)` or `inst := facts[0].State.(*T)` — a
	// selector or index chain rooted at an alias. The blessed idiom —
	// st.clone() or a fresh literal, then writes through the clone —
	// introduces a new object on the right-hand side and stays out of
	// this set.
	aliases := map[types.Object]bool{}
	for _, r := range roots {
		aliases[r] = true
	}
	ast.Inspect(body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok || len(assign.Rhs) != 1 {
			return true
		}
		rhs := assign.Rhs[0]
		if ta, ok := rhs.(*ast.TypeAssertExpr); ok {
			rhs = ta.X
		}
		id := chainRoot(rhs)
		if id == nil || !aliases[identObj(pass.Info, id)] {
			return true
		}
		if lhs, ok := assign.Lhs[0].(*ast.Ident); ok && lhs.Name != "_" {
			if obj := identObj(pass.Info, lhs); obj != nil {
				aliases[obj] = true
			}
		}
		return true
	})

	ast.Inspect(body, func(n ast.Node) bool {
		switch stmt := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range stmt.Lhs {
				if obj, root := writeThroughRoot(pass.Info, lhs, aliases); obj != nil {
					pass.Reportf(lhs.Pos(), "write through %q mutates prev or fact state shared with rendered snapshots (clone before writing)", root)
				}
			}
		case *ast.IncDecStmt:
			if obj, root := writeThroughRoot(pass.Info, stmt.X, aliases); obj != nil {
				pass.Reportf(stmt.Pos(), "write through %q mutates prev or fact state shared with rendered snapshots (clone before writing)", root)
			}
		case *ast.CallExpr:
			if id, ok := stmt.Fun.(*ast.Ident); ok && id.Name == "delete" && len(stmt.Args) > 0 {
				if b, ok := pass.Info.Uses[id].(*types.Builtin); ok && b.Name() == "delete" {
					if obj, root := writeThroughRoot(pass.Info, stmt.Args[0], aliases); obj != nil {
						pass.Reportf(stmt.Pos(), "delete through %q mutates prev or fact state shared with rendered snapshots (clone before writing)", root)
					}
				}
			}
		case *ast.RangeStmt:
			checkUpdateMapRange(pass, body, stmt)
		}
		return true
	})
}

// chainRoot returns the identifier a selector, index or paren chain is
// rooted at, or nil.
func chainRoot(expr ast.Expr) *ast.Ident {
	for {
		switch e := expr.(type) {
		case *ast.ParenExpr:
			expr = e.X
		case *ast.SelectorExpr:
			expr = e.X
		case *ast.IndexExpr:
			expr = e.X
		case *ast.Ident:
			return e
		default:
			return nil
		}
	}
}

// writeThroughRoot reports a write whose target dereferences an alias of
// prev: a field, element, or pointer chain rooted at the alias. A plain
// rebind of the alias identifier itself (`st = ...`) writes no shared
// memory and is ignored.
func writeThroughRoot(info *types.Info, expr ast.Expr, aliases map[types.Object]bool) (types.Object, string) {
	derefs := 0
	for {
		switch e := expr.(type) {
		case *ast.ParenExpr:
			expr = e.X
		case *ast.SelectorExpr:
			expr = e.X
			derefs++
		case *ast.IndexExpr:
			expr = e.X
			derefs++
		case *ast.StarExpr:
			expr = e.X
			derefs++
		case *ast.Ident:
			if derefs == 0 {
				return nil, ""
			}
			if obj := identObj(info, e); obj != nil && aliases[obj] {
				return obj, e.Name
			}
			return nil, ""
		default:
			return nil, ""
		}
	}
}

// checkUpdateMapRange flags state-field appends fed by a range over a
// map with no later sort of the field: the carried slice would replay
// the map's random order into every future render. This closes the gap
// maporder leaves for field targets (it only tracks plain identifiers).
func checkUpdateMapRange(pass *Pass, body *ast.BlockStmt, rs *ast.RangeStmt) {
	t := pass.Info.Types[rs.X].Type
	if t == nil {
		return
	}
	if _, isMap := t.Underlying().(*types.Map); !isMap {
		return
	}
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		assign, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		field := appendFieldTarget(pass.Info, assign)
		if field == nil {
			return true
		}
		if sortedLaterInFunc(pass, body, rs, field) {
			return true
		}
		pass.Reportf(assign.Pos(), "append to state field %q inside range over map with no later sort: carried order is nondeterministic", field.Name())
		return true
	})
}

// appendFieldTarget returns the field object of x.f in
// `x.f = append(x.f, ...)`, else nil.
func appendFieldTarget(info *types.Info, assign *ast.AssignStmt) types.Object {
	if len(assign.Rhs) != 1 || len(assign.Lhs) == 0 {
		return nil
	}
	call, ok := assign.Rhs[0].(*ast.CallExpr)
	if !ok {
		return nil
	}
	fn, ok := call.Fun.(*ast.Ident)
	if !ok || fn.Name != "append" {
		return nil
	}
	if b, ok := info.Uses[fn].(*types.Builtin); !ok || b.Name() != "append" {
		return nil
	}
	sel, ok := assign.Lhs[0].(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	return info.Uses[sel.Sel]
}

// sortedLaterInFunc reports whether a sort call mentioning field appears
// after the range loop, inside the same function body. Sorts in other
// functions do not launder this loop's order.
func sortedLaterInFunc(pass *Pass, body *ast.BlockStmt, rs *ast.RangeStmt, field types.Object) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() <= rs.End() {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if path, name, ok := pkgFunc(pass.Info, sel); ok && isSortFunc(path, name) && mentionsObject(pass.Info, call, field) {
				found = true
			}
		}
		return true
	})
	return found
}
