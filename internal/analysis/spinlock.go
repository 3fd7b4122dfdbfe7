package analysis

import (
	"go/ast"
	"go/types"
)

// blockingPkgs are packages whose package-level calls inside a spin region
// mean the "spin" is really a syscall or I/O wait in disguise. runtime is
// deliberately absent: runtime.Gosched is the sanctioned way to be polite
// while spinning.
var blockingPkgs = map[string]bool{
	"os":      true,
	"syscall": true,
	"fmt":     true,
	"io":      true,
}

// SpinLock flags blocking operations — channel sends/receives/selects,
// sync.Mutex/RWMutex/WaitGroup/Cond calls, time.Sleep, and os/syscall/fmt
// calls — inside spin-wait regions: any for-loop that polls a sync/atomic
// Load or CompareAndSwap. Spinning exists to keep dispatch latency at the
// paper's 1.1us; one hidden futex or syscall in the loop and the pool is
// an expensive mutex. Blocking *after* a bounded spin is fine and not
// flagged.
var SpinLock = &Analyzer{
	Name:        "spinlock",
	Doc:         "forbid blocking operations inside thread-pool spin-wait regions",
	AllowChecks: []string{"spinlock"},
	Run:         runSpinLock,
}

func runSpinLock(pass *Pass) (any, error) {
	if !inScope("spinlock", pass.Pkg.Path()) {
		return nil, nil
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			loop, ok := n.(*ast.ForStmt)
			if !ok || !isSpinLoop(pass, loop) {
				return true
			}
			checkSpinBody(pass, loop.Body)
			return true
		})
	}
	return nil, nil
}

// isSpinLoop reports whether the for-loop polls an atomic: its condition
// or body calls Load or CompareAndSwap on a sync/atomic value.
func isSpinLoop(pass *Pass, loop *ast.ForStmt) bool {
	found := false
	check := func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := funcOf(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync/atomic" {
			return true
		}
		if fn.Name() == "Load" || fn.Name() == "CompareAndSwap" {
			found = true
		}
		return true
	}
	if loop.Cond != nil {
		ast.Inspect(loop.Cond, check)
	}
	if loop.Body != nil && !found {
		ast.Inspect(loop.Body, check)
	}
	return found
}

// checkSpinBody reports every blocking operation inside a spin region.
func checkSpinBody(pass *Pass, body *ast.BlockStmt) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			pass.Reportf(n.Pos(), "channel send inside spin-wait region: spin regions must not block (paper section 3.3); move the send after the bounded spin")
		case *ast.UnaryExpr:
			if n.Op.String() == "<-" {
				pass.Reportf(n.Pos(), "channel receive inside spin-wait region: spin regions must not block (paper section 3.3); fall back to the channel only after the bounded spin")
			}
		case *ast.SelectStmt:
			pass.Reportf(n.Pos(), "select inside spin-wait region: spin regions must not block (paper section 3.3)")
		case *ast.RangeStmt:
			if tv, ok := pass.TypesInfo.Types[n.X]; ok {
				if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
					pass.Reportf(n.Pos(), "channel range inside spin-wait region: spin regions must not block (paper section 3.3)")
				}
			}
		case *ast.CallExpr:
			fn := funcOf(pass.TypesInfo, n)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			pkg := fn.Pkg().Path()
			switch {
			case pkg == "sync":
				name := fn.Name()
				if r := recvTypeName(fn); r != "" {
					name = r + "." + name
				}
				pass.Reportf(n.Pos(), "sync.%s call inside spin-wait region: a futex wait here turns the 1.1us spin dispatch into a blocking mutex", name)
			case pkg == "time" && fn.Name() == "Sleep":
				pass.Reportf(n.Pos(), "time.Sleep inside spin-wait region: sleeping parks the worker thread; spin or runtime.Gosched instead")
			case blockingPkgs[pkg]:
				pass.Reportf(n.Pos(), "%s.%s call inside spin-wait region: syscalls and I/O must stay out of the spin path", pkg, fn.Name())
			}
		}
		return true
	})
}

// recvTypeName names the receiver type of a method, or "" for functions.
func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}
