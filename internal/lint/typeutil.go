package lint

import (
	"go/ast"
	"go/types"
)

// Shared type-resolution helpers for the concurrency analyzers
// (lockscope, waitdiscipline).

// calleeFunc resolves the called function or method object of a call
// expression, or nil (built-ins, function values, indirect calls).
func calleeFunc(pass *Pass, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := pass.Info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if fn, ok := pass.Info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// isNamedType reports whether t (possibly behind a pointer) is the
// named type pkgPath.name.
func isNamedType(t types.Type, pkgPath, name string) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := n.Obj()
	return obj.Name() == name && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

// hasAnyMethod reports whether the method set of t (or *t) contains a
// method with one of the given names.
func hasAnyMethod(t types.Type, names ...string) bool {
	if t == nil {
		return false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	ms := types.NewMethodSet(types.NewPointer(t))
	if _, ok := t.Underlying().(*types.Interface); ok {
		ms = types.NewMethodSet(t)
	}
	for i := 0; i < ms.Len(); i++ {
		for _, n := range names {
			if ms.At(i).Obj().Name() == n {
				return true
			}
		}
	}
	return false
}

// declIndex maps every function/method object declared in the package
// to its declaration (the package-local call-graph substrate).
func declIndex(pass *Pass) map[*types.Func]*ast.FuncDecl {
	idx := map[*types.Func]*ast.FuncDecl{}
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			if fn, ok := pass.Info.Defs[fd.Name].(*types.Func); ok {
				idx[fn] = fd
			}
		}
	}
	return idx
}

// selectorRecv returns the receiver expression and method name of a
// method-call expression, or nil.
func selectorRecv(call *ast.CallExpr) (ast.Expr, string) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	return sel.X, sel.Sel.Name
}

// isPkgFunc reports whether a call targets the package-level function
// pkgPath.name (e.g. time.Sleep, io.ReadFull).
func isPkgFunc(pass *Pass, call *ast.CallExpr, pkgPath, name string) bool {
	fn := calleeFunc(pass, call)
	return fn != nil && fn.Name() == name && fn.Pkg() != nil && fn.Pkg().Path() == pkgPath
}

// rootObj resolves the object a channel-ish expression denotes: the
// variable of a plain identifier, or the field object of a selector
// chain (c.done). Used to match a goroutine's completion signal to the
// spawner's wait site.
func rootObj(pass *Pass, e ast.Expr) types.Object {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return pass.Info.Uses[e]
	case *ast.SelectorExpr:
		return pass.Info.Uses[e.Sel]
	}
	return nil
}
