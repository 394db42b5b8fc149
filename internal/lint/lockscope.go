package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Lockscope forbids blocking while a sync.Mutex or sync.RWMutex is
// held: a channel send/receive, a blocking select, time.Sleep,
// WaitGroup/Cond waiting, conn or buffered I/O, dialing — or a call to
// a same-package function that transitively does any of those — inside
// a Lock/Unlock window stalls every other contender of the mutex (and,
// for the serve path, can deadlock admission against drain). The
// analysis is path-sensitive through the framework's flow walker:
// Lock/Unlock pairing is tracked across branches, `defer mu.Unlock()`
// keeps the mutex held for the rest of the function (exactly the
// window other goroutines observe), and a lock released on one branch
// but not the other is still held at the merge. Blocking-call
// detection is intra-package: calls into other packages are trusted
// (their own lockscope run covers them).
var Lockscope = &Analyzer{
	Name: "lockscope",
	Doc:  "no channel ops, conn I/O, time.Sleep or transitively blocking calls while a sync mutex is held",
	Run:  runLockscope,
}

func runLockscope(pass *Pass) {
	blockers := blockingFuncs(pass)
	reported := map[string]bool{}
	for _, file := range pass.Files {
		funcScopes(file, func(_ *ast.FuncDecl, _ *ast.FuncLit, body *ast.BlockStmt) {
			checkLockScope(pass, body, blockers, reported)
		})
	}
}

// checkLockScope walks one function body tracking the held-lock set in
// the may-facts (a lock possibly held on some path is a finding — the
// schedule chooses the path at runtime).
func checkLockScope(pass *Pass, body *ast.BlockStmt, blockers map[*types.Func]string, reported map[string]bool) {
	report := func(pos token.Pos, what string, f *flowFacts) {
		if len(f.may) == 0 {
			return
		}
		held := strings.Join(f.mayKeys(), ", ")
		key := fmt.Sprintf("%d:%s", pos, what)
		if reported[key] {
			return
		}
		reported[key] = true
		pass.Reportf(pos, "%s"+heldPrefix+"%s"+heldSuffix+"blocking under a mutex stalls every contender", what, held)
	}
	hooks := &flowHooks{
		onCall: func(call *ast.CallExpr, deferred bool, f *flowFacts) {
			if key, acquire, ok := mutexOp(pass, call); ok {
				if deferred {
					return // defer mu.Unlock(): held until function exit
				}
				if acquire {
					f.may[key] = true
				} else {
					delete(f.may, key)
				}
				return
			}
			if deferred {
				return // deferred calls run at exit, after deferred unlocks
			}
			if what := blockingCall(pass, call, blockers); what != "" {
				report(call.Pos(), what, f)
			}
		},
		onSend: func(s *ast.SendStmt, f *flowFacts) {
			report(s.Arrow, "channel send", f)
		},
		onRecv: func(u *ast.UnaryExpr, f *flowFacts) {
			report(u.OpPos, "channel receive", f)
		},
		onSelect: func(s *ast.SelectStmt, f *flowFacts) {
			if !selectHasDefault(s) {
				report(s.Select, "blocking select", f)
			}
		},
		onRangeChan: func(r *ast.RangeStmt, f *flowFacts) {
			if t := pass.TypeOf(r.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					report(r.For, "range over channel", f)
				}
			}
		},
	}
	walkFlow(body, hooks)
}

// heldPrefix and heldSuffix bracket the held mutexes (", "-joined) in
// a lockscope message, where lockscopeHeld finds them again.
const heldPrefix, heldSuffix = " while ", " is held — "

// lockscopeHeld returns the mutexes a lockscope message reports held.
func lockscopeHeld(msg string) []string {
	end := strings.Index(msg, heldSuffix)
	if end < 0 {
		return nil
	}
	start := strings.LastIndex(msg[:end], heldPrefix)
	if start < 0 {
		return nil
	}
	return strings.Split(msg[start+len(heldPrefix):end], ", ")
}

// namesMutex reports whether text names the mutex expression mu as a
// whole word: "c.rmu" names c.rmu, "sc.rmu" and "c.rmux" do not.
func namesMutex(text, mu string) bool {
	ident := func(r byte) bool {
		return r == '_' || '0' <= r && r <= '9' || 'a' <= r && r <= 'z' || 'A' <= r && r <= 'Z'
	}
	for i := 0; ; {
		j := strings.Index(text[i:], mu)
		if j < 0 {
			return false
		}
		j += i
		end := j + len(mu)
		if (j == 0 || !ident(text[j-1]) && text[j-1] != '.') && (end == len(text) || !ident(text[end])) {
			return true
		}
		i = j + 1
	}
}

// mutexOp classifies a call as a sync.Mutex/RWMutex transition,
// returning the normalized receiver key and whether it acquires.
func mutexOp(pass *Pass, call *ast.CallExpr) (key string, acquire, ok bool) {
	recv, name := selectorRecv(call)
	if recv == nil {
		return "", false, false
	}
	switch name {
	case "Lock", "RLock":
		acquire = true
	case "Unlock", "RUnlock":
	default:
		return "", false, false
	}
	t := pass.TypeOf(recv)
	if !isNamedType(t, "sync", "Mutex") && !isNamedType(t, "sync", "RWMutex") {
		return "", false, false
	}
	return types.ExprString(recv), acquire, true
}

func selectHasDefault(s *ast.SelectStmt) bool {
	for _, cl := range s.Body.List {
		if comm, ok := cl.(*ast.CommClause); ok && comm.Comm == nil {
			return true
		}
	}
	return false
}

// blockingCall describes why a call blocks ("" if it does not): a
// known blocking primitive, or a same-package callee that transitively
// contains one.
func blockingCall(pass *Pass, call *ast.CallExpr, blockers map[*types.Func]string) string {
	if what := blockingPrimitive(pass, call); what != "" {
		return what
	}
	fn := calleeFunc(pass, call)
	if fn == nil {
		return ""
	}
	if why, ok := blockers[fn]; ok {
		return fmt.Sprintf("call to %s, which blocks (%s)", fn.Name(), why)
	}
	return ""
}

// blockingPrimitive classifies directly blocking calls.
func blockingPrimitive(pass *Pass, call *ast.CallExpr) string {
	if isPkgFunc(pass, call, "time", "Sleep") {
		return "time.Sleep"
	}
	for _, name := range []string{"ReadFull", "ReadAtLeast", "Copy", "CopyN"} {
		if isPkgFunc(pass, call, "io", name) {
			return "io." + name
		}
	}
	for _, name := range []string{"Dial", "DialTimeout", "Listen"} {
		if isPkgFunc(pass, call, "net", name) {
			return "net." + name
		}
	}
	recv, name := selectorRecv(call)
	if recv == nil {
		return ""
	}
	t := pass.TypeOf(recv)
	switch name {
	case "Wait":
		if isNamedType(t, "sync", "WaitGroup") {
			return "WaitGroup.Wait"
		}
		if isNamedType(t, "sync", "Cond") {
			return "Cond.Wait"
		}
	case "Read", "Write", "Flush", "ReadFrom", "WriteTo":
		if isConnIO(t) {
			return fmt.Sprintf("%s I/O", types.ExprString(call.Fun))
		}
	}
	return ""
}

// isConnIO reports whether a receiver type does potentially unbounded
// I/O: any deadline-capable conn (net.Conn and friends, detected by
// method set so test fakes count too) or a bufio reader/writer (whose
// fill/flush hits the underlying conn).
func isConnIO(t types.Type) bool {
	return hasAnyMethod(t, "SetReadDeadline", "SetWriteDeadline", "SetDeadline") ||
		isNamedType(t, "bufio", "Reader") || isNamedType(t, "bufio", "Writer") ||
		isNamedType(t, "bufio", "ReadWriter")
}

// blockingFuncs computes the package-local transitive-blocking set:
// functions whose body (outside closures — those run in their own
// goroutine or context) contains a blocking primitive, a channel
// operation, or a call to another blocking same-package function.
func blockingFuncs(pass *Pass) map[*types.Func]string {
	idx := declIndex(pass)
	out := map[*types.Func]string{}

	// Seed: direct primitives and channel operations.
	for fn, fd := range idx {
		if why := directBlockReason(pass, fd.Body); why != "" {
			out[fn] = why
		}
	}
	// Close over package-local calls, deterministically (sorted by
	// position) so the recorded reason is stable across runs.
	fns := make([]*types.Func, 0, len(idx))
	for fn := range idx {
		fns = append(fns, fn)
	}
	sort.Slice(fns, func(i, j int) bool { return idx[fns[i]].Pos() < idx[fns[j]].Pos() })
	for changed := true; changed; {
		changed = false
		for _, fn := range fns {
			if _, done := out[fn]; done {
				continue
			}
			var why string
			ast.Inspect(idx[fn].Body, func(n ast.Node) bool {
				if why != "" {
					return false
				}
				if _, ok := n.(*ast.FuncLit); ok {
					return false
				}
				if call, ok := n.(*ast.CallExpr); ok {
					if callee := calleeFunc(pass, call); callee != nil && callee != fn {
						if _, blocks := out[callee]; blocks {
							why = "calls " + callee.Name()
						}
					}
				}
				return true
			})
			if why != "" {
				out[fn] = why
				changed = true
			}
		}
	}
	return out
}

// directBlockReason scans one body (skipping closures) for a directly
// blocking construct.
func directBlockReason(pass *Pass, body ast.Node) string {
	var why string
	ast.Inspect(body, func(n ast.Node) bool {
		if why != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			why = "channel send"
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				why = "channel receive"
			}
		case *ast.SelectStmt:
			if !selectHasDefault(n) {
				why = "blocking select"
				return false
			}
			// A select with default never blocks: its communication
			// operations are non-blocking attempts, so only the clause
			// bodies (which do execute) are scanned.
			for _, cl := range n.Body.List {
				comm, ok := cl.(*ast.CommClause)
				if !ok {
					continue
				}
				for _, st := range comm.Body {
					if why == "" {
						why = directBlockReason(pass, st)
					}
				}
			}
			return false
		case *ast.RangeStmt:
			if t := pass.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					why = "range over channel"
				}
			}
		case *ast.CallExpr:
			why = blockingPrimitive(pass, n)
		}
		return why == ""
	})
	return why
}
