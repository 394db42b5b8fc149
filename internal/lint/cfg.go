package lint

import (
	"go/ast"
	"go/token"
	"sort"
)

// This file is the framework's small intra-procedural control-flow
// helper: a forward walk over one function body that drives analyzer
// hooks in execution order while maintaining a path-sensitive fact
// set. "May" facts hold on at least one path reaching a point (used by
// lockscope for locks-possibly-held: union at merges). The walker is
// deliberately simpler than a real CFG: loop bodies are evaluated once
// (facts established late in a body are not propagated back to its
// top), and break/continue/goto conservatively end their path, so it
// can only miss findings on such paths, never invent them.
//
// Closures are separate execution contexts: the walker never descends
// into a *ast.FuncLit body — analyzers walk each literal as its own
// function.

// flowFacts is the per-path analysis state at one program point.
type flowFacts struct {
	// may holds facts true on at least one path (union at merges).
	may map[string]bool
	// dead marks a path that cannot continue (after return/break);
	// dead paths are excluded from merges.
	dead bool
}

func newFlowFacts() *flowFacts {
	return &flowFacts{may: map[string]bool{}}
}

func (f *flowFacts) clone() *flowFacts {
	c := &flowFacts{may: make(map[string]bool, len(f.may)), dead: f.dead}
	for k, v := range f.may {
		c.may[k] = v
	}
	return c
}

// mayKeys returns the sorted may-facts (deterministic diagnostics).
func (f *flowFacts) mayKeys() []string {
	keys := make([]string, 0, len(f.may))
	for k := range f.may {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// merge folds the state of a sibling branch into f (may-union). A
// dead branch contributes nothing; if f itself is dead the other
// branch's state replaces it.
func (f *flowFacts) merge(o *flowFacts) {
	if o.dead {
		return
	}
	if f.dead {
		*f = *o.clone()
		return
	}
	for k := range o.may {
		f.may[k] = true
	}
}

// flowHooks are the analyzer callbacks the walker drives. Every hook
// is optional; each receives the current path facts and may mutate
// them (that is how lockscope records Lock/Unlock transitions).
type flowHooks struct {
	// onCall fires for every call expression, with deferred=true for
	// the call of a defer statement (which runs at function exit, not
	// here — analyzers usually skip fact transitions for it).
	onCall func(call *ast.CallExpr, deferred bool, f *flowFacts)
	// onSend fires for every channel send statement. Sends that are a
	// select communication clause do not fire (the select decides
	// whether anything blocks); onSelect sees those.
	onSend func(s *ast.SendStmt, f *flowFacts)
	// onRecv fires for every <-ch receive expression outside select
	// communication clauses.
	onRecv func(u *ast.UnaryExpr, f *flowFacts)
	// onSelect fires for every select statement, before its clauses.
	onSelect func(s *ast.SelectStmt, f *flowFacts)
	// onRangeChan fires for every range statement; the analyzer checks
	// whether the ranged expression is a channel.
	onRangeChan func(r *ast.RangeStmt, f *flowFacts)
}

// walkFlow drives hooks over body with fresh facts and returns the
// exit-state facts (the merge of every non-dead path reaching the end).
func walkFlow(body *ast.BlockStmt, hooks *flowHooks) *flowFacts {
	f := newFlowFacts()
	flowStmt(body, hooks, f)
	return f
}

// flowStmt walks one statement, updating f in place.
func flowStmt(s ast.Stmt, hooks *flowHooks, f *flowFacts) {
	if s == nil || f.dead {
		return
	}
	switch s := s.(type) {
	case *ast.BlockStmt:
		for _, st := range s.List {
			if f.dead {
				return
			}
			flowStmt(st, hooks, f)
		}
	case *ast.ExprStmt:
		flowExpr(s.X, hooks, f)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			flowExpr(e, hooks, f)
		}
		for _, e := range s.Lhs {
			flowExpr(e, hooks, f)
		}
	case *ast.DeclStmt, *ast.IncDecStmt, *ast.EmptyStmt:
		flowExpr(s, hooks, f)
	case *ast.SendStmt:
		flowExpr(s.Chan, hooks, f)
		flowExpr(s.Value, hooks, f)
		if hooks.onSend != nil {
			hooks.onSend(s, f)
		}
	case *ast.IfStmt:
		flowStmt(s.Init, hooks, f)
		flowExpr(s.Cond, hooks, f)
		then := f.clone()
		flowStmt(s.Body, hooks, then)
		els := f.clone()
		flowStmt(s.Else, hooks, els)
		*f = *then
		f.merge(els)
	case *ast.ForStmt:
		flowStmt(s.Init, hooks, f)
		flowExpr(s.Cond, hooks, f)
		one := f.clone()
		flowStmt(s.Body, hooks, one)
		flowStmt(s.Post, hooks, one)
		// The zero-iteration path is f itself; one full iteration is
		// merged in. (Facts set late in a body are not re-fed to its
		// top — see the file comment.)
		f.merge(one)
	case *ast.RangeStmt:
		flowExpr(s.X, hooks, f)
		if hooks.onRangeChan != nil {
			hooks.onRangeChan(s, f)
		}
		one := f.clone()
		flowStmt(s.Body, hooks, one)
		f.merge(one)
	case *ast.SwitchStmt:
		flowStmt(s.Init, hooks, f)
		flowExpr(s.Tag, hooks, f)
		flowCases(s.Body, hooks, f)
	case *ast.TypeSwitchStmt:
		flowStmt(s.Init, hooks, f)
		flowStmt(s.Assign, hooks, f)
		flowCases(s.Body, hooks, f)
	case *ast.SelectStmt:
		if hooks.onSelect != nil {
			hooks.onSelect(s, f)
		}
		var branches []*flowFacts
		for _, cl := range s.Body.List {
			comm := cl.(*ast.CommClause)
			bf := f.clone()
			flowCommStmt(comm.Comm, hooks, bf)
			for _, st := range comm.Body {
				if bf.dead {
					break
				}
				flowStmt(st, hooks, bf)
			}
			branches = append(branches, bf)
		}
		if len(branches) > 0 {
			*f = *branches[0]
			for _, b := range branches[1:] {
				f.merge(b)
			}
		}
	case *ast.DeferStmt:
		for _, a := range s.Call.Args {
			flowExpr(a, hooks, f)
		}
		if hooks.onCall != nil {
			hooks.onCall(s.Call, true, f)
		}
	case *ast.GoStmt:
		// The spawned call runs concurrently, not here; its arguments
		// are evaluated here.
		for _, a := range s.Call.Args {
			flowExpr(a, hooks, f)
		}
	case *ast.ReturnStmt:
		for _, e := range s.Results {
			flowExpr(e, hooks, f)
		}
		f.dead = true
	case *ast.BranchStmt:
		// break/continue/goto end this path conservatively; their
		// facts do not reach the post-loop merge (may miss findings
		// on such paths, never invents them).
		f.dead = true
	case *ast.LabeledStmt:
		flowStmt(s.Stmt, hooks, f)
	default:
		flowExpr(s, hooks, f)
	}
}

// flowCases walks the case clauses of a switch body: each clause from
// a clone of the entry state, all merged; without a default clause the
// fall-past path (entry state unchanged) joins the merge too.
func flowCases(body *ast.BlockStmt, hooks *flowHooks, f *flowFacts) {
	hasDefault := false
	var branches []*flowFacts
	for _, cl := range body.List {
		cc, ok := cl.(*ast.CaseClause)
		if !ok {
			continue
		}
		if cc.List == nil {
			hasDefault = true
		}
		bf := f.clone()
		for _, e := range cc.List {
			flowExpr(e, hooks, bf)
		}
		for _, st := range cc.Body {
			if bf.dead {
				break
			}
			flowStmt(st, hooks, bf)
		}
		branches = append(branches, bf)
	}
	if !hasDefault {
		branches = append(branches, f.clone())
	}
	if len(branches) > 0 {
		*f = *branches[0]
		for _, b := range branches[1:] {
			f.merge(b)
		}
	}
}

// flowCommStmt walks a select communication statement without firing
// onSend/onRecv for the communication operation itself — whether the
// select blocks is onSelect's judgement (a default clause makes every
// communication non-blocking).
func flowCommStmt(s ast.Stmt, hooks *flowHooks, f *flowFacts) {
	switch s := s.(type) {
	case nil: // default clause
	case *ast.SendStmt:
		flowExpr(s.Chan, hooks, f)
		flowExpr(s.Value, hooks, f)
	case *ast.ExprStmt:
		if u, ok := ast.Unparen(s.X).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
			flowExpr(u.X, hooks, f)
			return
		}
		flowExpr(s.X, hooks, f)
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			if u, ok := ast.Unparen(e).(*ast.UnaryExpr); ok && u.Op == token.ARROW {
				flowExpr(u.X, hooks, f)
				continue
			}
			flowExpr(e, hooks, f)
		}
	default:
		flowStmt(s, hooks, f)
	}
}

// flowExpr fires the call/receive hooks for every call expression and
// channel receive inside n, in source order, without descending into
// function literals (separate execution contexts).
func flowExpr(n ast.Node, hooks *flowHooks, f *flowFacts) {
	if n == nil {
		return
	}
	ast.Inspect(n, func(x ast.Node) bool {
		switch x := x.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			if hooks.onCall != nil {
				hooks.onCall(x, false, f)
			}
		case *ast.UnaryExpr:
			if x.Op == token.ARROW && hooks.onRecv != nil {
				hooks.onRecv(x, f)
			}
		}
		return true
	})
}

// funcScopes yields every function body in a file — each declaration
// and each function literal — as an independent analysis scope.
func funcScopes(file *ast.File, visit func(decl *ast.FuncDecl, lit *ast.FuncLit, body *ast.BlockStmt)) {
	for _, decl := range file.Decls {
		fd, ok := decl.(*ast.FuncDecl)
		if !ok || fd.Body == nil {
			continue
		}
		visit(fd, nil, fd.Body)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if lit, ok := n.(*ast.FuncLit); ok {
				visit(fd, lit, lit.Body)
			}
			return true
		})
	}
}
