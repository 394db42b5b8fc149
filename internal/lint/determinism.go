package lint

import (
	"go/ast"
	"go/types"
)

// Determinism enforces the bit-identical-results contract of the
// detection pipeline (ROADMAP "Full verify"; DESIGN.md §8–§10): it
// forbids the process-seeded global math/rand generators (only
// explicitly seeded *rand.Rand instances are deterministic), map
// iteration whose body writes to state declared outside the loop
// (iteration order is randomized; writes indexed by the range key are
// order-independent and stay legal), and goroutines that append to a
// slice captured from the enclosing scope (a determinism *and* race
// hazard — workers must write through disjoint indices). Inside the
// detector-facing packages it also forbids wall-clock reads (time.Now /
// Since / Until); internal/serve reads the clock by design, for
// deadlines and latency metrics, and is covered by the other checks.
var Determinism = &Analyzer{
	Name:     "determinism",
	Doc:      "forbid wall-clock (detector packages), global rand, order-dependent map iteration and shared-slice appends in goroutines",
	Packages: append([]string{"internal/serve"}, detectorPackages...),
	Run:      runDeterminism,
}

// detectorPackages are the packages whose results must be a pure
// function of their inputs — the scope of the wall-clock check.
var detectorPackages = []string{"internal/core", "internal/detector", "internal/phy", "internal/conformance"}

// randConstructors are the math/rand[/v2] package-level functions that
// build explicitly seeded generators — the deterministic entry points.
var randConstructors = map[string]bool{
	"New": true, "NewPCG": true, "NewSource": true, "NewZipf": true, "NewChaCha8": true,
}

func runDeterminism(pass *Pass) {
	wallClock := pathMatches(pass.Pkg.Path(), detectorPackages)
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				checkForbiddenRef(pass, n, wallClock)
			case *ast.RangeStmt:
				checkMapRange(pass, n)
			case *ast.GoStmt:
				checkGoAppend(pass, n)
			}
			return true
		})
	}
}

// checkForbiddenRef flags package-level math/rand state and, when
// wallClock is set, time.Now/Since/Until.
func checkForbiddenRef(pass *Pass, sel *ast.SelectorExpr, wallClock bool) {
	obj := pass.Info.Uses[sel.Sel]
	if obj == nil || obj.Pkg() == nil {
		return
	}
	switch obj.Pkg().Path() {
	case "time":
		if _, ok := obj.(*types.Func); ok && wallClock {
			switch obj.Name() {
			case "Now", "Since", "Until":
				pass.Reportf(sel.Pos(), "time.%s reads the wall clock — detection must be a pure function of its inputs", obj.Name())
			}
		}
	case "math/rand", "math/rand/v2":
		// Only package-level functions/vars are process-seeded; methods
		// on an explicit *rand.Rand resolve to the rand package too but
		// have a receiver in their signature.
		switch o := obj.(type) {
		case *types.Func:
			if sig, ok := o.Type().(*types.Signature); ok && sig.Recv() != nil {
				return
			}
			if randConstructors[o.Name()] {
				return
			}
			pass.Reportf(sel.Pos(), "global %s.%s is process-seeded and nondeterministic — use a seeded rand.New(rand.NewPCG(...)) stream", obj.Pkg().Name(), obj.Name())
		case *types.Var:
			pass.Reportf(sel.Pos(), "global %s.%s is shared process state — use a seeded local generator", obj.Pkg().Name(), obj.Name())
		}
	}
}

// checkMapRange flags map iterations whose body writes to variables
// declared outside the loop, except writes indexed by the range key
// (those touch a distinct element per iteration, so order cannot
// matter).
func checkMapRange(pass *Pass, rng *ast.RangeStmt) {
	t := pass.TypeOf(rng.X)
	if t == nil {
		return
	}
	if _, ok := t.Underlying().(*types.Map); !ok {
		return
	}
	keyObj := rangeVarObj(pass, rng.Key)
	valObj := rangeVarObj(pass, rng.Value)
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // a closure defers execution; out of scope here
		case *ast.AssignStmt:
			for _, lhs := range n.Lhs {
				checkOuterWrite(pass, rng, lhs, keyObj, valObj)
			}
		case *ast.IncDecStmt:
			checkOuterWrite(pass, rng, n.X, keyObj, valObj)
		}
		return true
	})
}

// rangeVarObj resolves the object of a range key/value identifier.
func rangeVarObj(pass *Pass, e ast.Expr) types.Object {
	id, ok := e.(*ast.Ident)
	if !ok {
		return nil
	}
	if o := pass.Info.Defs[id]; o != nil {
		return o
	}
	return pass.Info.Uses[id]
}

// checkOuterWrite reports an assignment target that roots at a
// variable declared outside the range statement, unless the write is
// element-wise through the range key.
func checkOuterWrite(pass *Pass, rng *ast.RangeStmt, lhs ast.Expr, keyObj, valObj types.Object) {
	e := ast.Unparen(lhs)
	// Walk off index/selector/star layers, remembering whether any
	// index uses the range key.
	indexedByKey := false
	for {
		switch x := e.(type) {
		case *ast.IndexExpr:
			if keyObj != nil && usesObj(pass, x.Index, keyObj) {
				indexedByKey = true
			}
			e = ast.Unparen(x.X)
		case *ast.SelectorExpr:
			e = ast.Unparen(x.X)
		case *ast.StarExpr:
			e = ast.Unparen(x.X)
		default:
			id, ok := e.(*ast.Ident)
			if !ok {
				return
			}
			obj := pass.Info.Uses[id]
			if obj == nil {
				obj = pass.Info.Defs[id]
			}
			if obj == nil || obj == keyObj || obj == valObj {
				return
			}
			v, ok := obj.(*types.Var)
			if !ok {
				return
			}
			// Declared inside the loop body → each iteration owns it.
			if v.Pos() >= rng.Body.Pos() && v.Pos() < rng.Body.End() {
				return
			}
			if indexedByKey {
				return // distinct element per iteration: order-independent
			}
			pass.Reportf(lhs.Pos(), "map iteration writes to %s declared outside the loop — iteration order is randomized; index by the range key, collect and sort keys first, or accumulate into a local", v.Name())
			return
		}
	}
}

// usesObj reports whether expression e references obj.
func usesObj(pass *Pass, e ast.Expr, obj types.Object) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && pass.Info.Uses[id] == obj {
			found = true
		}
		return !found
	})
	return found
}

// checkGoAppend flags `go func(){ ... x = append(x, ...) ... }()` where
// x is captured from the enclosing scope: concurrent appends race on
// the slice header and land in scheduler order.
func checkGoAppend(pass *Pass, g *ast.GoStmt) {
	lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit)
	if !ok {
		return
	}
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		asg, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for i, rhs := range asg.Rhs {
			call, ok := ast.Unparen(rhs).(*ast.CallExpr)
			if !ok {
				continue
			}
			id, ok := ast.Unparen(call.Fun).(*ast.Ident)
			if !ok {
				continue
			}
			if b, ok := pass.Info.Uses[id].(*types.Builtin); !ok || b.Name() != "append" {
				continue
			}
			if i >= len(asg.Lhs) {
				continue
			}
			target, ok := rootIdent(asg.Lhs[i])
			if !ok {
				continue
			}
			v, ok := pass.Info.Uses[target].(*types.Var)
			if !ok {
				continue
			}
			// Captured: declared outside the goroutine's function literal.
			if v.Pos() < lit.Pos() || v.Pos() >= lit.End() {
				pass.Reportf(asg.Pos(), "goroutine appends to %s captured from the enclosing scope — results depend on scheduling (and race); write through disjoint indices instead", v.Name())
			}
		}
		return true
	})
}

// rootIdent peels index/selector/star layers off an lvalue.
func rootIdent(e ast.Expr) (*ast.Ident, bool) {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.Ident:
			return x, true
		default:
			return nil, false
		}
	}
}
