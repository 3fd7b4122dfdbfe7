package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AtomicMix flags mixed atomic/plain access: a variable accessed through
// sync/atomic anywhere in a package must never be read or written plainly,
// and values of the typed atomic kinds (atomic.Int64 &c.) must only be
// used as method-call receivers or through their address — copying one
// detaches a snapshot from the synchronized cell.
//
// The motivating case is the event queue's stats counter (internal/des): a
// Stats snapshot may be taken concurrently with the run, so one plain
// `q.events` read next to the atomic adds is a data race the race detector
// only sees on the schedules that interleave it.
var AtomicMix = &Analyzer{
	Name:        "atomicmix",
	Doc:         "forbid plain access to variables that are accessed atomically elsewhere",
	AllowChecks: []string{"atomicmix"},
	Run:         runAtomicMix,
}

func runAtomicMix(pass *Pass) (any, error) {
	// Pass 1: find every variable whose address feeds an old-API
	// sync/atomic call (atomic.AddInt64(&v, ...) and friends), remembering
	// the idents used inside those calls — they are the sanctioned
	// accesses.
	atomicAt := map[*types.Var]token.Pos{}
	sanctioned := map[*ast.Ident]bool{}
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := funcOf(pass.TypesInfo, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
				return true
			}
			if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
				return true // methods belong to the typed API, handled below
			}
			if len(call.Args) == 0 {
				return true
			}
			unary, ok := ast.Unparen(call.Args[0]).(*ast.UnaryExpr)
			if !ok || unary.Op != token.AND {
				return true
			}
			id := accessIdent(ast.Unparen(unary.X))
			if id == nil {
				return true
			}
			v, _ := pass.TypesInfo.Uses[id].(*types.Var)
			if v == nil {
				return true
			}
			if _, seen := atomicAt[v]; !seen {
				atomicAt[v] = id.Pos()
			}
			sanctioned[id] = true
			return true
		})
	}

	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		// Pass 2: every other use of an atomically-accessed variable is a
		// plain access racing with the atomic ones.
		ast.Inspect(f, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok || sanctioned[id] {
				return true
			}
			v, _ := pass.TypesInfo.Uses[id].(*types.Var)
			if v == nil {
				return true
			}
			if at, tracked := atomicAt[v]; tracked {
				pass.Reportf(id.Pos(), "plain access of %s, which is accessed atomically at %s: every access must go through sync/atomic",
					v.Name(), pass.Fset.Position(at))
			}
			return true
		})
		// Pass 3: typed atomic values used outside a method call or
		// address-of are copies of the synchronized cell.
		checkTypedAtomics(pass, f)
	}
	return nil, nil
}

// accessIdent returns the ident naming the accessed variable: the ident
// itself, or the field ident of a (possibly nested) selector.
func accessIdent(e ast.Expr) *ast.Ident {
	switch e := e.(type) {
	case *ast.Ident:
		return e
	case *ast.SelectorExpr:
		return e.Sel
	case *ast.IndexExpr:
		return accessIdent(ast.Unparen(e.X))
	}
	return nil
}

// checkTypedAtomics walks one file with an explicit parent stack and flags
// typed atomic values (atomic.Int64, atomic.Bool, ...) used anywhere other
// than as a method receiver or under &.
func checkTypedAtomics(pass *Pass, f *ast.File) {
	var stack []ast.Node
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil {
			stack = stack[:len(stack)-1]
			return true
		}
		stack = append(stack, n)
		e, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		switch e.(type) {
		case *ast.Ident, *ast.SelectorExpr:
		default:
			return true
		}
		tv, ok := pass.TypesInfo.Types[e]
		if !ok || !tv.IsValue() || !isTypedAtomic(tv.Type) {
			return true
		}
		if parent := parentExpr(stack); !typedAtomicUseOK(e, parent) {
			pass.Reportf(e.Pos(), "%s value copied out of its cell: typed sync/atomic values must be used via their methods or through a pointer",
				tv.Type.String())
		}
		return true
	})
}

// parentExpr returns the node enclosing the top of the stack.
func parentExpr(stack []ast.Node) ast.Node {
	if len(stack) < 2 {
		return nil
	}
	return stack[len(stack)-2]
}

// typedAtomicUseOK reports whether parent is a sanctioned context for a
// typed atomic expression e: the X of a method selector, the operand of &,
// or the Sel half of a selector (already judged at the selector itself).
func typedAtomicUseOK(e ast.Expr, parent ast.Node) bool {
	switch p := parent.(type) {
	case *ast.SelectorExpr:
		// x.counter.Add(...): the selector either picks a method of the
		// atomic (p.X == e) or e is the Sel ident of a field selector that
		// was already checked as a whole.
		return true
	case *ast.UnaryExpr:
		return p.Op == token.AND
	}
	return false
}

// isTypedAtomic reports whether t is one of sync/atomic's typed cells.
func isTypedAtomic(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic"
}
