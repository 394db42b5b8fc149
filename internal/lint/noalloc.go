package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Noalloc enforces the repository's zero-allocation steady-state
// contract (CHANGES.md PRs 1 & 3): a function annotated
// //flexcore:noalloc must contain no allocation site — no make, new or
// append, no escaping composite literal (slice/map literals and &T{}),
// no allocating string conversion or concatenation, no capturing
// closure, no go statement and no interface boxing of a non-constant
// value. One allocation is the amortised grow and stays legal: a make
// assigned directly in the then-branch of `if cap(x) < n` or
// `if len(x) < n` runs only when a reused buffer must outgrow every
// earlier size (amortisedGrows). Other amortized grow paths carry an
// explicit //lint:ignore noalloc <why>; the AllocsPerRun gate tests
// keep the dynamic side of the claim honest, and `flexlint -escapes`
// cross-checks against the compiler's escape analysis.
var Noalloc = &Analyzer{
	Name: "noalloc",
	Doc:  "//flexcore:noalloc functions must contain no allocation sites",
	Run:  runNoalloc,
}

func runNoalloc(pass *Pass) {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hasNoallocDirective(fd) {
				continue
			}
			checkNoalloc(pass, fd)
		}
	}
}

func checkNoalloc(pass *Pass, fd *ast.FuncDecl) {
	grows := amortisedGrows(pass.Info, fd.Body)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if !grows[n] {
				checkNoallocCall(pass, fd, n)
			}
		case *ast.UnaryExpr:
			if n.Op == token.AND {
				if lit, ok := ast.Unparen(n.X).(*ast.CompositeLit); ok {
					pass.Reportf(lit.Pos(), "&composite literal allocates in //flexcore:noalloc %s", fd.Name.Name)
				}
			}
		case *ast.CompositeLit:
			switch pass.TypeOf(n).Underlying().(type) {
			case *types.Slice, *types.Map:
				pass.Reportf(n.Pos(), "%s literal allocates in //flexcore:noalloc %s", typeKind(pass.TypeOf(n)), fd.Name.Name)
			}
		case *ast.FuncLit:
			if cap := capturedVar(pass, fd, n); cap != "" {
				pass.Reportf(n.Pos(), "closure captures %s and allocates in //flexcore:noalloc %s", cap, fd.Name.Name)
			}
		case *ast.GoStmt:
			pass.Reportf(n.Pos(), "go statement allocates a goroutine in //flexcore:noalloc %s", fd.Name.Name)
		case *ast.BinaryExpr:
			if n.Op == token.ADD && isString(pass.TypeOf(n)) && pass.Info.Types[n].Value == nil {
				pass.Reportf(n.Pos(), "string concatenation allocates in //flexcore:noalloc %s", fd.Name.Name)
			}
		case *ast.AssignStmt:
			checkBoxing(pass, fd, assignPairs(pass, n))
		case *ast.ReturnStmt:
			checkBoxing(pass, fd, returnPairs(pass, fd, n))
		}
		return true
	})
}

// amortisedGrows returns the make calls in body that are the amortised
// grow of a reused buffer: the whole right-hand side of an assignment
// that sits directly in the then-branch of `if cap(x) < n` or
// `if len(x) < n`. Such a make runs only when the buffer must outgrow
// every earlier size, never in steady state; the AllocsPerRun gates are
// the dynamic check of that claim. A make nested deeper (in a loop of
// the branch, say) is not a grow and stays a finding.
func amortisedGrows(info *types.Info, body *ast.BlockStmt) map[*ast.CallExpr]bool {
	grows := map[*ast.CallExpr]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		ifs, ok := n.(*ast.IfStmt)
		if !ok {
			return true
		}
		guard, ok := ast.Unparen(ifs.Cond).(*ast.BinaryExpr)
		if !ok || guard.Op != token.LSS {
			return true
		}
		if b := builtinName(info, guard.X); b != "cap" && b != "len" {
			return true
		}
		for _, st := range ifs.Body.List {
			if as, ok := st.(*ast.AssignStmt); ok {
				for _, rhs := range as.Rhs {
					if builtinName(info, rhs) == "make" {
						grows[ast.Unparen(rhs).(*ast.CallExpr)] = true
					}
				}
			}
		}
		return true
	})
	return grows
}

// builtinName returns the name of the builtin e calls, or "".
func builtinName(info *types.Info, e ast.Expr) string {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok {
		return ""
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return ""
	}
	if b, ok := info.Uses[id].(*types.Builtin); ok {
		return b.Name()
	}
	return ""
}

// checkNoallocCall flags allocating builtins, allocating string
// conversions, and interface boxing of call arguments.
func checkNoallocCall(pass *Pass, fd *ast.FuncDecl, call *ast.CallExpr) {
	if name := builtinName(pass.Info, call); name != "" {
		switch name {
		case "make":
			pass.Reportf(call.Pos(), "make allocates in //flexcore:noalloc %s", fd.Name.Name)
		case "new":
			pass.Reportf(call.Pos(), "new allocates in //flexcore:noalloc %s", fd.Name.Name)
		case "append":
			pass.Reportf(call.Pos(), "append may grow its backing array in //flexcore:noalloc %s", fd.Name.Name)
		}
		return
	}
	tv, ok := pass.Info.Types[call.Fun]
	if ok && tv.IsType() {
		// Conversion: T(x). Only string conversions allocate here.
		if isString(tv.Type) && len(call.Args) == 1 {
			arg := call.Args[0]
			if pass.Info.Types[arg].Value == nil && !isString(pass.TypeOf(arg)) {
				pass.Reportf(call.Pos(), "conversion to string allocates in //flexcore:noalloc %s", fd.Name.Name)
			}
		}
		return
	}
	sig, ok := pass.TypeOf(call.Fun).(*types.Signature)
	if !ok {
		return
	}
	pairs := make([]boxPair, 0, len(call.Args))
	np := sig.Params().Len()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= np-1:
			if call.Ellipsis.IsValid() {
				pt = sig.Params().At(np - 1).Type() // arg is the slice itself
			} else {
				pt = sig.Params().At(np - 1).Type().(*types.Slice).Elem()
			}
		case i < np:
			pt = sig.Params().At(i).Type()
		default:
			continue
		}
		pairs = append(pairs, boxPair{dst: pt, src: arg})
	}
	checkBoxing(pass, fd, pairs)
}

// boxPair is one concrete-value-into-destination flow to check for
// interface boxing.
type boxPair struct {
	dst types.Type
	src ast.Expr
}

// checkBoxing reports pairs where a non-constant concrete value flows
// into an interface destination (an allocation at the conversion).
func checkBoxing(pass *Pass, fd *ast.FuncDecl, pairs []boxPair) {
	for _, p := range pairs {
		if p.dst == nil || p.src == nil {
			continue
		}
		if !types.IsInterface(p.dst) {
			continue
		}
		st := pass.TypeOf(p.src)
		if st == nil || types.IsInterface(st) {
			continue
		}
		tv := pass.Info.Types[p.src]
		if tv.Value != nil || tv.IsNil() {
			continue // constants and nil box without a heap allocation
		}
		pass.Reportf(p.src.Pos(), "%s boxes into interface %s (allocates) in //flexcore:noalloc %s",
			types.ExprString(p.src), p.dst.String(), fd.Name.Name)
	}
}

// assignPairs extracts the value→destination flows of an assignment.
func assignPairs(pass *Pass, n *ast.AssignStmt) []boxPair {
	if len(n.Lhs) != len(n.Rhs) {
		return nil // comma-ok / multi-value call; conversions inside are caught as calls
	}
	pairs := make([]boxPair, 0, len(n.Lhs))
	for i := range n.Lhs {
		pairs = append(pairs, boxPair{dst: pass.TypeOf(n.Lhs[i]), src: n.Rhs[i]})
	}
	return pairs
}

// returnPairs extracts the value→result flows of a return statement.
func returnPairs(pass *Pass, fd *ast.FuncDecl, n *ast.ReturnStmt) []boxPair {
	obj := pass.Info.Defs[fd.Name]
	fn, ok := obj.(*types.Func)
	if !ok {
		return nil
	}
	res := fn.Type().(*types.Signature).Results()
	if res.Len() != len(n.Results) {
		return nil
	}
	pairs := make([]boxPair, 0, len(n.Results))
	for i, r := range n.Results {
		pairs = append(pairs, boxPair{dst: res.At(i).Type(), src: r})
	}
	return pairs
}

// capturedVar returns the name of a variable the function literal
// captures from its enclosing function, or "" if it captures nothing
// (a non-capturing literal compiles to a static function — no
// allocation).
func capturedVar(pass *Pass, fd *ast.FuncDecl, lit *ast.FuncLit) string {
	found := ""
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if found != "" {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := pass.Info.Uses[id].(*types.Var)
		if !ok || v.Pkg() != pass.Pkg {
			return true
		}
		// Captured: declared inside the enclosing function but outside
		// the literal (package-level vars are not captures).
		if v.Pos() >= fd.Pos() && v.Pos() < fd.End() && (v.Pos() < lit.Pos() || v.Pos() >= lit.End()) {
			found = v.Name()
			return false
		}
		return true
	})
	return found
}

func isString(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func typeKind(t types.Type) string {
	switch t.Underlying().(type) {
	case *types.Slice:
		return "slice"
	case *types.Map:
		return "map"
	}
	return "composite"
}
