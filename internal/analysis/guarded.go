package analysis

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"
)

// Guarded enforces two documented concurrency contracts:
//
//  1. A struct field whose comment says "guarded by <mu>" may only be
//     touched inside methods of its struct after <mu> (a sync.Mutex or
//     RWMutex field) is locked on the lexical path to the access. Methods
//     whose name ends in "Locked" or whose doc says the caller holds the
//     lock are the sanctioned escape for lock-split helpers.
//
//  2. Types with a single-goroutine contract (serializedTypes below) must
//     never have methods called from inside a go statement: the whole
//     point of the contract is that all calls happen on one goroutine.
//
// The motivating cases are faultinject.Model's per-link stream cache
// (shared state documented guarded by mu, so every touch must hold it) and
// health.Tracker, which is documented NOT concurrency-safe
// and is driven solely from the simulation driver goroutine.
//
// The lock check is lexical, not a dataflow analysis: a Lock anywhere
// earlier in the method body (deferred Unlocks ignored) counts as held.
// That is exactly the shape the repo's hot paths use; anything cleverer
// should be restructured, not analyzed harder.
var Guarded = &Analyzer{
	Name:        "guarded",
	Doc:         "enforce 'guarded by mu' field comments and single-goroutine type contracts",
	AllowChecks: []string{"guarded"},
	Run:         runGuarded,
}

// serializedTypes names types documented single-goroutine: all method
// calls must stay off spawned goroutines. jobfarm.Scheduler does no
// locking by design — the Farm serializes every call under its mutex —
// so touching it from a freshly spawned goroutine is always a bug.
var serializedTypes = map[string][]string{
	"tofumd/internal/health":  {"Tracker"},
	"tofumd/internal/jobfarm": {"Scheduler"},
}

var guardedByRE = regexp.MustCompile(`guarded by (\w+)`)

func runGuarded(pass *Pass) (any, error) {
	guards := collectGuardedFields(pass)
	for _, f := range pass.Files {
		if pass.IsTestFile(f) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if ok && fd.Recv != nil && fd.Body != nil {
				checkGuardedMethod(pass, fd, guards)
			}
		}
		checkSerializedCalls(pass, f)
	}
	return nil, nil
}

// guardInfo maps a guarded field object to the name of its mutex field.
type guardInfo map[*types.Var]string

// collectGuardedFields scans struct declarations for "guarded by <mu>"
// field comments and resolves the commented fields to their objects.
func collectGuardedFields(pass *Pass) guardInfo {
	guards := guardInfo{}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, field := range st.Fields.List {
				mu := guardNameOf(field)
				if mu == "" {
					continue
				}
				for _, name := range field.Names {
					if v, ok := pass.TypesInfo.Defs[name].(*types.Var); ok {
						guards[v] = mu
					}
				}
			}
			return true
		})
	}
	return guards
}

// guardNameOf extracts the mutex name from a field's doc or line comment.
func guardNameOf(field *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		if m := guardedByRE.FindStringSubmatch(cg.Text()); m != nil {
			return m[1]
		}
	}
	return ""
}

// lockExempt reports whether a method is a sanctioned lock-split helper:
// the "...Locked" naming convention, or a doc comment stating the caller
// holds the lock.
func lockExempt(fd *ast.FuncDecl) bool {
	if strings.HasSuffix(fd.Name.Name, "Locked") {
		return true
	}
	if fd.Doc == nil {
		return false
	}
	doc := strings.ToLower(fd.Doc.Text())
	return strings.Contains(doc, "caller holds") || strings.Contains(doc, "caller must hold")
}

// checkGuardedMethod walks one method body in lexical order, tracking
// which of the receiver's mutexes are held, and reports guarded-field
// accesses outside the lock.
func checkGuardedMethod(pass *Pass, fd *ast.FuncDecl, guards guardInfo) {
	if len(guards) == 0 || lockExempt(fd) {
		return
	}
	recv := receiverIdent(fd)
	if recv == "" {
		return
	}
	held := map[string]bool{}
	inDefer := 0
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.DeferStmt:
			// A deferred unlock releases at return, not here; a deferred
			// lock would be nonsense. Freeze the lock state for the
			// deferred call's own subtree.
			inDefer++
			ast.Inspect(n.Call, walk)
			inDefer--
			return false
		case *ast.CallExpr:
			if mu, op, ok := mutexOp(n, recv); ok && inDefer == 0 {
				switch op {
				case "Lock", "RLock":
					held[mu] = true
				case "Unlock", "RUnlock":
					held[mu] = false
				}
			}
		case *ast.SelectorExpr:
			x, ok := ast.Unparen(n.X).(*ast.Ident)
			if !ok || x.Name != recv {
				return true
			}
			v, _ := pass.TypesInfo.Uses[n.Sel].(*types.Var)
			if v == nil {
				return true
			}
			if mu, guarded := guards[v]; guarded && !held[mu] {
				pass.Reportf(n.Pos(), "%s.%s is guarded by %s but accessed without holding it; lock %s first or rename the method *Locked",
					recv, n.Sel.Name, mu, mu)
			}
		}
		return true
	}
	ast.Inspect(fd.Body, walk)
}

// receiverIdent names the method receiver, or "" when anonymous.
func receiverIdent(fd *ast.FuncDecl) string {
	if len(fd.Recv.List) == 0 || len(fd.Recv.List[0].Names) == 0 {
		return ""
	}
	return fd.Recv.List[0].Names[0].Name
}

// mutexOp matches recv.<mu>.<Lock|Unlock|RLock|RUnlock>() and returns the
// mutex field name and operation.
func mutexOp(call *ast.CallExpr, recv string) (mu, op string, ok bool) {
	sel, isSel := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	op = sel.Sel.Name
	if op != "Lock" && op != "Unlock" && op != "RLock" && op != "RUnlock" {
		return "", "", false
	}
	inner, isSel := ast.Unparen(sel.X).(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	x, isIdent := ast.Unparen(inner.X).(*ast.Ident)
	if !isIdent || x.Name != recv {
		return "", "", false
	}
	return inner.Sel.Name, op, true
}

// checkSerializedCalls flags method calls on single-goroutine types inside
// go statements, anywhere in the tree rooted at a GoStmt (including
// goroutine closures).
func checkSerializedCalls(pass *Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		g, ok := n.(*ast.GoStmt)
		if !ok {
			return true
		}
		ast.Inspect(g, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := funcOf(pass.TypesInfo, call)
			if fn == nil {
				return true
			}
			if path, name, ok := methodRecvType(fn); ok && isSerialized(path, name) {
				pass.Reportf(call.Pos(), "%s.%s method called from a spawned goroutine: %s is single-goroutine by contract — route through the driver goroutine",
					name, fn.Name(), name)
			}
			return true
		})
		return true
	})
}

// methodRecvType resolves a method's receiver base type.
func methodRecvType(fn *types.Func) (pkgPath, typeName string, ok bool) {
	sig, isSig := fn.Type().(*types.Signature)
	if !isSig || sig.Recv() == nil {
		return "", "", false
	}
	t := sig.Recv().Type()
	if ptr, isPtr := t.(*types.Pointer); isPtr {
		t = ptr.Elem()
	}
	named, isNamed := t.(*types.Named)
	if !isNamed || named.Obj().Pkg() == nil {
		return "", "", false
	}
	return named.Obj().Pkg().Path(), named.Obj().Name(), true
}

func isSerialized(pkgPath, typeName string) bool {
	for _, n := range serializedTypes[pkgPath] {
		if n == typeName {
			return true
		}
	}
	return false
}
