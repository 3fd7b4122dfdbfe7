package analysis

import (
	"go/ast"
	"go/types"
)

// MapIter flags ranging over a map in the exporter packages unless the
// loop is the canonical sorted-keys prelude (a body that only collects the
// range keys into a slice, which the caller then sorts). Everything else —
// aggregating values, appending snapshots, emitting rows — must iterate
// over sorted keys instead; a loop that is provably order-independent can
// carry //tofuvet:allow mapiter with a justification.
var MapIter = &Analyzer{
	Name:        "mapiter",
	Doc:         "forbid unsorted map iteration in deterministic exporter packages",
	AllowChecks: []string{"mapiter"},
	Run:         runMapIter,
}

func runMapIter(pass *Pass) (any, error) {
	if !inScope("mapiter", pass.Pkg.Path()) {
		return nil, nil
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			tv, ok := pass.TypesInfo.Types[rng.X]
			if !ok {
				return true
			}
			if _, isMap := tv.Type.Underlying().(*types.Map); !isMap {
				return true
			}
			if isKeyCollectionLoop(pass, rng) {
				return true
			}
			pass.Reportf(rng.Pos(), "map iteration in exporter package %s feeds output in randomized order: collect the keys, sort them, and index the map (see metrics.sortedKeys), or annotate an order-independent loop with %s mapiter <reason>", pass.Pkg.Path(), AllowDirective)
			return true
		})
	}
	return nil, nil
}

// isKeyCollectionLoop reports whether rng is the sorted-keys prelude:
// `for k := range m { keys = append(keys, k) }` — exactly one statement
// that appends the range key (and nothing else) to a slice.
func isKeyCollectionLoop(pass *Pass, rng *ast.RangeStmt) bool {
	if rng.Value != nil || rng.Body == nil || len(rng.Body.List) != 1 {
		return false
	}
	key, ok := rng.Key.(*ast.Ident)
	if !ok {
		return false
	}
	assign, ok := rng.Body.List[0].(*ast.AssignStmt)
	if !ok || len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
		return false
	}
	call, ok := assign.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return false
	}
	fun, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || fun.Name != "append" {
		return false
	}
	if _, isBuiltin := pass.TypesInfo.Uses[fun].(*types.Builtin); !isBuiltin {
		return false
	}
	arg, ok := ast.Unparen(call.Args[1]).(*ast.Ident)
	if !ok {
		return false
	}
	keyObj := pass.TypesInfo.Defs[key]
	return keyObj != nil && pass.TypesInfo.Uses[arg] == keyObj
}
