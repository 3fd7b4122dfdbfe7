package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// DeadAssign flags `_ = x` statements whose right-hand side is a plain
// local variable: the only effect of such a statement is to defeat the
// compiler's unused-variable check, which means either the computation of
// x is dead (delete both) or a use of x was forgotten (a bug). Discarding
// call results (`_ = f()`), unused-parameter documentation (`_ = param` is
// still flagged — remove the parameter or name it _), and compile-time
// interface assertions (`var _ I = (*T)(nil)`, a declaration, not an
// assignment) are out of scope or unaffected.
var DeadAssign = &Analyzer{
	Name:        "deadassign",
	Doc:         "forbid blank assignments that suppress the unused-variable check in halo-path packages",
	AllowChecks: []string{"deadassign"},
	Run:         runDeadAssign,
}

func runDeadAssign(pass *Pass) (any, error) {
	if !inScope("deadassign", pass.Pkg.Path()) {
		return nil, nil
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
				return true
			}
			lhs, ok := as.Lhs[0].(*ast.Ident)
			if !ok || lhs.Name != "_" {
				return true
			}
			rhs, ok := ast.Unparen(as.Rhs[0]).(*ast.Ident)
			if !ok {
				return true
			}
			v, ok := pass.TypesInfo.Uses[rhs].(*types.Var)
			if !ok || v.IsField() {
				return true
			}
			pass.Reportf(as.Pos(), "dead assignment _ = %s suppresses the unused-variable check: delete the computation of %s or use its value", rhs.Name, rhs.Name)
			return true
		})
	}
	return nil, nil
}
