// Package detmerge checks that the deterministic merge path stays
// deterministic.  The sharded engine's guarantee — the merged test set and
// result classifications are a pure function of the fault list, independent
// of worker count and steal interleaving — dies silently
// if any function on the merge path iterates a map (random order) or sorts
// with sort.Slice (unstable) without a total comparator.
//
// Functions annotated //atpgvet:deterministic are roots; every function
// reachable from a root through package-local static calls is checked.
package detmerge

import (
	"go/ast"
	"go/types"

	"repro/tools/atpgvet/analysis"
	"repro/tools/atpgvet/astcheck"
)

// Analyzer is the detmerge check.
var Analyzer = &analysis.Analyzer{
	Name: "detmerge",
	Doc: `forbid map iteration and unstable sorts on the deterministic merge path

Functions annotated //atpgvet:deterministic (and everything they reach
through package-local calls) may not range over maps — iteration order is
randomized — and may not call sort.Slice, which is unstable: equal elements
come out in unspecified order, so a comparator that is not total breaks
cross-run determinism.  Use slice iteration, sorted key slices,
sort.SliceStable, or suppress with a reason proving the operation is
order-independent.`,
	Run: run,
}

func run(pass *analysis.Pass) (any, error) {
	graph := astcheck.BuildCallGraph(pass.Files, pass.TypesInfo)
	var roots []*types.Func
	for fn, decl := range graph.Decls {
		if astcheck.HasAnnotation(decl, "deterministic") {
			roots = append(roots, fn)
		}
	}
	if len(roots) == 0 {
		return nil, nil
	}
	for fn := range graph.Reachable(roots) {
		decl := graph.Decls[fn]
		ast.Inspect(decl.Body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.RangeStmt:
				t := pass.TypesInfo.TypeOf(n.X)
				if t == nil {
					return true
				}
				if _, isMap := t.Underlying().(*types.Map); isMap {
					pass.Reportf(n.Pos(),
						"range over map in %s, which is on the deterministic merge path (//atpgvet:deterministic); map iteration order is randomized", fn.Name())
				}
			case *ast.CallExpr:
				if callee := astcheck.Callee(pass.TypesInfo, n); callee != nil &&
					callee.Name() == "Slice" && callee.Pkg() != nil && callee.Pkg().Path() == "sort" {
					pass.Reportf(n.Pos(),
						"sort.Slice in %s, which is on the deterministic merge path (//atpgvet:deterministic); use sort.SliceStable or a provably total comparator", fn.Name())
				}
			}
			return true
		})
	}
	return nil, nil
}
