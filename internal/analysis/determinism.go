package analysis

import (
	"go/ast"
	"strconv"
)

// wallclockFuncs are the time-package functions that read the host clock.
var wallclockFuncs = map[string]bool{"Now": true, "Since": true, "Until": true}

// Determinism forbids wall-clock reads (time.Now, time.Since, time.Until)
// and any use of the global math/rand generators inside the simulation
// packages. Simulated time must come from internal/des engines and
// randomness from seeded, splittable internal/xrand sources, or two runs
// of the same input stop being bit-identical. The two legitimate
// wall-clock sites (the thread pool's dispatch-latency metrics, which
// observe the host, never the simulation) carry //tofuvet:allow wallclock.
var Determinism = &Analyzer{
	Name:        "determinism",
	Doc:         "forbid wall-clock time and global math/rand in simulation packages",
	AllowChecks: []string{"wallclock"},
	Run:         runDeterminism,
}

func runDeterminism(pass *Pass) (any, error) {
	if !inScope("determinism", pass.Pkg.Path()) {
		return nil, nil
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if path == "math/rand" || path == "math/rand/v2" {
				pass.Reportf(imp.Pos(), "import of %s in simulation package %s: use a seeded, splittable tofumd/internal/xrand.Source so runs stay reproducible across rank counts", path, pass.Pkg.Path())
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := funcOf(pass.TypesInfo, call)
			if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "time" {
				return true
			}
			if wallclockFuncs[fn.Name()] {
				pass.Reportf(call.Pos(), "wall-clock time.%s in simulation package %s: use virtual time from a tofumd/internal/des engine (or annotate a host-observability site with %s wallclock <reason>)", fn.Name(), pass.Pkg.Path(), AllowDirective)
			}
			return true
		})
	}
	return nil, nil
}
