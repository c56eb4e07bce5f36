// Package scratchalias checks the aliasing contract of State-owned scratch
// slices.  implic.State.UnjustifiedWord returns two buffers owned by the
// State, the unjustified nets and their miss words: both are overwritten by
// the next UnjustifiedWord call and invalidated by mutating calls on the same
// State, so callers may only iterate them locally.  The same contract
// applies to every result of any same-package method annotated
// //atpgvet:scratch.
//
// Reported misuses:
//   - storing a result in a struct field, a package-level variable, or
//     returning it (the alias outlives the call site);
//   - growing it with append (reallocates or clobbers the State's buffer);
//   - using it after a subsequent mutating call on the same receiver
//     (including inside a range over the scratch slice).
package scratchalias

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/tools/atpgvet/analysis"
	"repro/tools/atpgvet/astcheck"
)

// Analyzer is the scratchalias check.
var Analyzer = &analysis.Analyzer{
	Name: "scratchalias",
	Doc: `check that State-owned scratch slices are not retained or grown

Both results of implic.State.UnjustifiedWord (and every result of methods
annotated //atpgvet:scratch) alias buffers owned by the receiver.  They must
be consumed before the receiver is mutated again, must not be stored in
longer-lived locations, and must not be grown with append.`,
	Run: run,
}

// mutators are the State methods that may rewrite the scratch buffer or the
// planes it is derived from; using a scratch alias after one of these calls
// on the same receiver reads stale or rewritten data.
var mutators = map[string]bool{
	"Assign": true, "Undo": true, "Reset": true, "Imply": true,
	"ForwardSim": true, "AddRequirement": true, "AssignPI": true,
	"AssignPIWord": true, "UnjustifiedWord": true,
}

func run(pass *analysis.Pass) (any, error) {
	scratch := scratchMethods(pass)
	for _, f := range pass.Files {
		for _, scope := range astcheck.Scopes(f) {
			checkScope(pass, scope, scratch)
		}
	}
	return nil, nil
}

// scratchMethods collects the same-package methods annotated
// //atpgvet:scratch, so packages can extend the contract beyond the
// built-in implic.State.UnjustifiedWord.
func scratchMethods(pass *analysis.Pass) map[*types.Func]bool {
	out := make(map[*types.Func]bool)
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			decl, ok := d.(*ast.FuncDecl)
			if !ok || decl.Recv == nil || !astcheck.HasAnnotation(decl, "scratch") {
				continue
			}
			if fn, ok := pass.TypesInfo.Defs[decl.Name].(*types.Func); ok {
				out[fn] = true
			}
		}
	}
	return out
}

// isScratchCall reports whether the call returns State-owned scratch slices
// and returns the receiver expression.
func isScratchCall(pass *analysis.Pass, scratch map[*types.Func]bool, call *ast.CallExpr) (ast.Expr, bool) {
	if recv, ok := astcheck.IsMethodOn(pass.TypesInfo, call, "implic", "State", "UnjustifiedWord"); ok {
		return recv, true
	}
	if fn := astcheck.Callee(pass.TypesInfo, call); fn != nil && scratch[fn] {
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			return sel.X, true
		}
	}
	return nil, false
}

func checkScope(pass *analysis.Pass, scope *astcheck.FuncScope, scratch map[*types.Func]bool) {
	info := pass.TypesInfo

	// Pass 1: find scratch bindings (nets, miss := recv.UnjustifiedWord(...))
	// and direct stores of scratch results into non-local locations.
	type binding struct {
		obj  types.Object // the local variable holding the alias
		recv string       // receiver expression, canonicalized
		pos  token.Pos
	}
	var bindings []binding
	addBinding := func(lhs ast.Expr, recv ast.Expr, pos token.Pos) {
		if id, ok := lhs.(*ast.Ident); ok {
			if id.Name == "_" {
				return
			}
			if obj := info.Defs[id]; obj != nil {
				bindings = append(bindings, binding{obj: obj, recv: types.ExprString(recv), pos: pos})
				return
			}
			if obj := info.Uses[id]; obj != nil {
				if v, ok := obj.(*types.Var); ok && !v.IsField() && v.Parent() != v.Pkg().Scope() {
					bindings = append(bindings, binding{obj: obj, recv: types.ExprString(recv), pos: pos})
					return
				}
			}
		}
		pass.Reportf(lhs.Pos(), "scratch slice stored in a non-local location; it aliases a State-owned buffer that the next call overwrites")
	}
	astcheck.WalkShallow(scope.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Rhs) == 1 && len(n.Lhs) > 1 {
				// One call, several results: every result is scratch.
				if call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr); ok {
					if recv, ok := isScratchCall(pass, scratch, call); ok {
						for _, lhs := range n.Lhs {
							addBinding(lhs, recv, call.Pos())
						}
					}
				}
				return true
			}
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, rhs := range n.Rhs {
				call, ok := ast.Unparen(rhs).(*ast.CallExpr)
				if !ok {
					continue
				}
				if recv, ok := isScratchCall(pass, scratch, call); ok {
					addBinding(n.Lhs[i], recv, call.Pos())
				}
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if call, ok := ast.Unparen(res).(*ast.CallExpr); ok {
					if recv, ok := isScratchCall(pass, scratch, call); ok {
						// Returning the scratch directly re-exports the alias;
						// legal only for the scratch methods themselves
						// (annotate the wrapper //atpgvet:scratch).
						if !scopeIsScratch(pass, scope, scratch, recv) {
							pass.Reportf(call.Pos(), "scratch slice returned to the caller; annotate this method //atpgvet:scratch or copy the slice")
						}
					}
				}
			}
		}
		return true
	})

	// Pass 2: per binding, flag appends, re-stores and use-after-mutation.
	for _, b := range bindings {
		checkBinding(pass, scope, b.obj, b.recv, b.pos)
	}

	// Pass 3: mutating the receiver while ranging over its scratch result,
	// called in the range clause or bound before it.
	astcheck.WalkShallow(scope.Body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		var recvStr string
		switch x := ast.Unparen(rng.X).(type) {
		case *ast.CallExpr:
			recv, ok := isScratchCall(pass, scratch, x)
			if !ok {
				return true
			}
			recvStr = types.ExprString(recv)
		case *ast.Ident:
			for _, b := range bindings {
				if info.Uses[x] == b.obj {
					recvStr = b.recv
				}
			}
		}
		if recvStr == "" {
			return true
		}
		astcheck.WalkShallow(rng.Body, func(m ast.Node) bool {
			if mc, ok := m.(*ast.CallExpr); ok {
				if name, ok := mutatorCallOn(pass, mc, recvStr); ok {
					pass.Reportf(mc.Pos(), "%s.%s() inside a range over a scratch result of %s mutates the scratch slice being iterated", recvStr, name, recvStr)
				}
			}
			return true
		})
		return true
	})
}

// scopeIsScratch reports whether the enclosing declaration is itself a
// scratch method on the same receiver (those may legally hand the buffer
// out).
func scopeIsScratch(pass *analysis.Pass, scope *astcheck.FuncScope, scratch map[*types.Func]bool, recv ast.Expr) bool {
	if scope.Lit != nil || scope.Decl == nil || scope.Decl.Recv == nil {
		return false
	}
	fn, ok := pass.TypesInfo.Defs[scope.Decl.Name].(*types.Func)
	return ok && scratch[fn]
}

// mutatorCallOn reports whether call is a mutating State method call whose
// receiver canonicalizes to recvStr.
func mutatorCallOn(pass *analysis.Pass, call *ast.CallExpr, recvStr string) (string, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !mutators[sel.Sel.Name] {
		return "", false
	}
	recv, ok := astcheck.IsMethodOn(pass.TypesInfo, call, "implic", "State", sel.Sel.Name)
	if !ok || types.ExprString(recv) != recvStr {
		return "", false
	}
	return sel.Sel.Name, true
}

// checkBinding flags misuses of one scratch alias variable.
func checkBinding(pass *analysis.Pass, scope *astcheck.FuncScope, obj types.Object, recvStr string, bindPos token.Pos) {
	info := pass.TypesInfo
	var mutations []token.Pos // positions of mutating calls on the receiver after the binding

	usesObj := func(e ast.Expr) bool {
		id, ok := ast.Unparen(e).(*ast.Ident)
		return ok && info.Uses[id] == obj
	}

	astcheck.WalkShallow(scope.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if n.Pos() > bindPos {
				if _, ok := mutatorCallOn(pass, n, recvStr); ok {
					mutations = append(mutations, n.Pos())
				}
			}
			// append(x, ...) grows the State-owned buffer.
			if id, ok := ast.Unparen(n.Fun).(*ast.Ident); ok && id.Name == "append" &&
				len(n.Args) > 0 && usesObj(n.Args[0]) {
				if _, builtin := info.Uses[id].(*types.Builtin); builtin {
					pass.Reportf(n.Pos(), "append to scratch slice %s grows a State-owned buffer; copy it first", obj.Name())
				}
			}
		case *ast.AssignStmt:
			// Re-storing the alias into a field or package-level variable.
			for i, rhs := range n.Rhs {
				if !usesObj(rhs) || i >= len(n.Lhs) {
					continue
				}
				switch lhs := n.Lhs[i].(type) {
				case *ast.Ident:
					if v, ok := info.ObjectOf(lhs).(*types.Var); ok && v.Parent() == v.Pkg().Scope() {
						pass.Reportf(n.Pos(), "scratch slice %s stored in package-level variable %s; it aliases a State-owned buffer", obj.Name(), lhs.Name)
					}
				case *ast.SelectorExpr:
					pass.Reportf(n.Pos(), "scratch slice %s stored in %s; it aliases a State-owned buffer that the next call overwrites", obj.Name(), types.ExprString(lhs))
				}
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				if usesObj(res) {
					pass.Reportf(n.Pos(), "scratch slice %s returned to the caller; copy it or annotate the method //atpgvet:scratch", obj.Name())
				}
			}
		case *ast.Ident:
			if info.Uses[n] == obj && n.Pos() > bindPos && afterAny(mutations, n.Pos()) {
				pass.Reportf(n.Pos(), "scratch slice %s used after a mutating call on %s; the buffer may have been rewritten", obj.Name(), recvStr)
			}
		}
		return true
	})
}

// afterAny reports whether pos lies after at least one recorded mutation.
func afterAny(mutations []token.Pos, pos token.Pos) bool {
	for _, m := range mutations {
		if pos > m {
			return true
		}
	}
	return false
}
