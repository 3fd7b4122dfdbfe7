package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// UnitArg flags bare numeric literals passed across a package boundary to
// a parameter whose type is a unit-carrying defined numeric type: any
// named numeric type from a tofumd package (units.Bytes, trace.Stage, ...)
// or time.Duration. `WireTime(8)` compiles because untyped constants
// convert silently, but the reader cannot tell eight bytes from eight
// nanoseconds from stage eight; the call site must say
// `WireTime(units.Bytes(8))` or name a constant. Stdlib flag-like types
// (fs.FileMode and friends) are exempt — octal literals are their idiom.
// Arguments that are named constants, conversions, or typed expressions
// pass.
var UnitArg = &Analyzer{
	Name:        "unitarg",
	Doc:         "require named constants or explicit conversions for unit-typed parameters",
	AllowChecks: []string{"unitarg"},
	Run:         runUnitArg,
}

func runUnitArg(pass *Pass) (any, error) {
	if !inScope("unitarg", pass.Pkg.Path()) {
		return nil, nil
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			tv, ok := pass.TypesInfo.Types[call.Fun]
			if !ok || tv.IsType() {
				return true // conversion, not a call
			}
			sig, ok := tv.Type.Underlying().(*types.Signature)
			if !ok {
				return true
			}
			for i, arg := range call.Args {
				pt := paramType(sig, i, call)
				if pt == nil {
					continue
				}
				named := definedNumeric(pt)
				if named == nil {
					continue
				}
				obj := named.Obj()
				if obj.Pkg() == nil || obj.Pkg() == pass.Pkg {
					continue // same package: local idiom may pass raw sizes
				}
				if !unitTypePkg(obj.Pkg().Path()) {
					continue // stdlib flag-like types: octal perms etc. are idiomatic
				}
				if !isBareNumericLiteral(arg) {
					continue
				}
				pass.Reportf(arg.Pos(), "bare numeric literal for parameter of unit type %s.%s: write %s.%s(...) or pass a named constant so the unit is visible at the call site", obj.Pkg().Name(), obj.Name(), obj.Pkg().Name(), obj.Name())
			}
			return true
		})
	}
	return nil, nil
}

// unitTypePkg reports whether a defined numeric type from pkgPath carries
// unit semantics this analyzer enforces: everything defined inside the
// module, plus time.Duration's package.
func unitTypePkg(pkgPath string) bool {
	return pkgPath == "time" || inScope("unitarg", pkgPath)
}

// paramType returns the declared type of argument i, accounting for
// variadic signatures; nil when i is out of range or the call uses ...
func paramType(sig *types.Signature, i int, call *ast.CallExpr) types.Type {
	np := sig.Params().Len()
	if np == 0 || call.Ellipsis.IsValid() {
		return nil
	}
	if sig.Variadic() {
		if i < np-1 {
			return sig.Params().At(i).Type()
		}
		slice, ok := sig.Params().At(np - 1).Type().(*types.Slice)
		if !ok {
			return nil
		}
		return slice.Elem()
	}
	if i >= np {
		return nil
	}
	return sig.Params().At(i).Type()
}

// definedNumeric returns the named type if t is a defined type whose
// underlying type is a basic numeric type, else nil.
func definedNumeric(t types.Type) *types.Named {
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	basic, ok := named.Underlying().(*types.Basic)
	if !ok || basic.Info()&types.IsNumeric == 0 {
		return nil
	}
	return named
}

// isBareNumericLiteral reports whether expr is a numeric literal, possibly
// signed or parenthesized, with no conversion or named constant around it.
func isBareNumericLiteral(expr ast.Expr) bool {
	switch e := ast.Unparen(expr).(type) {
	case *ast.BasicLit:
		return e.Kind == token.INT || e.Kind == token.FLOAT
	case *ast.UnaryExpr:
		if e.Op == token.SUB || e.Op == token.ADD {
			return isBareNumericLiteral(e.X)
		}
	}
	return false
}
