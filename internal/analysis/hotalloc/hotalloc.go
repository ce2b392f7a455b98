// Package hotalloc protects allocation-free hot paths at review time
// instead of only at bench time. BenchmarkDecideAll/workers=1 proves
// the FLOC decide phase performs zero heap allocations per operation;
// that property is one careless fmt.Sprintf, one growing append or
// one escaping closure away from silently regressing, and the bench
// gate only catches it after the fact (and only on the benched
// configuration).
//
// A function whose doc comment carries deltavet:hotpath opts into the
// discipline, and hotpath-ness propagates transitively to everything
// the function statically calls across all analyzed packages — the
// cross-package fact mechanism in the framework — so annotating
// floc's decideRange covers the cluster toggles and residue kernels it
// drives without annotating every helper. Propagation stops at
// functions marked deltavet:coldpath: code reachable from a hot path
// in the source but never taken in steady state (one-time cache
// builds, amortized geometric growth). Calls through interfaces and
// function values are not resolved; annotate their implementations
// directly if they sit on a hot path.
//
// Inside hot functions the analyzer flags the allocation-inducing
// constructs that have historically crept into kernels:
//
//   - calls to fmt's formatting functions (Sprintf and friends);
//   - make — allocate in setup, or reuse engine-owned scratch;
//   - append to an uncapped function-local slice (declared without
//     capacity, so steady-state growth reallocates);
//   - arguments boxed into interface parameters;
//   - function literals that are not immediately invoked (closures
//     escape to the heap when captured).
//
// Arguments of panic calls are exempt: a panic path executes at most
// once and its formatting cost is irrelevant. Amortized or
// warmup-only allocations that genuinely belong on a hot function are
// suppressed line by line with
// `deltavet:ignore hotalloc reason=<argument>`, keeping each
// exception visible and reviewed.
package hotalloc

import (
	"go/ast"
	"go/types"

	"deltacluster/internal/analysis"
)

// HotFact is exported for every function the propagation reaches; Via
// names the deltavet:hotpath root through which it became hot.
type HotFact struct {
	Via string
}

// Analyzer is the hotalloc pass.
var Analyzer = &analysis.Analyzer{
	Name: "hotalloc",
	Doc: "flags allocation-inducing constructs (fmt, make, uncapped append, interface " +
		"boxing, closures) in deltavet:hotpath functions and their transitive callees",
	RunModule: run,
}

// fnInfo ties a function object to its declaration site.
type fnInfo struct {
	decl *ast.FuncDecl
	file *ast.File
	pass *analysis.Pass
}

func run(mp *analysis.ModulePass) error {
	fns := map[*types.Func]*fnInfo{}
	var order []*types.Func // declaration order across packages: deterministic roots and reports
	for _, pass := range mp.Passes {
		for _, file := range pass.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				obj, ok := pass.TypesInfo.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				fns[obj] = &fnInfo{decl: fd, file: file, pass: pass}
				order = append(order, obj)
			}
		}
	}

	// Seed with the annotated roots, in declaration order.
	hot := map[*types.Func]string{} // func -> root annotation it is hot via
	var queue []*types.Func
	for _, fn := range order {
		info := fns[fn]
		isHot := analysis.CommentGroupMarked(info.decl.Doc, analysis.HotPathMarker)
		isCold := analysis.CommentGroupMarked(info.decl.Doc, analysis.ColdPathMarker)
		if isHot && isCold {
			info.pass.Reportf(info.decl.Pos(),
				"%s is marked both deltavet:hotpath and deltavet:coldpath", fn.Name())
			continue
		}
		if isHot {
			hot[fn] = fn.Name()
			queue = append(queue, fn)
		}
	}

	// Propagate hotness breadth-first over static call edges, stopping
	// at coldpath functions.
	for len(queue) > 0 {
		fn := queue[0]
		queue = queue[1:]
		info := fns[fn]
		via := hot[fn]
		ast.Inspect(info.decl.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			callee := staticCallee(info.pass, call)
			if callee == nil {
				return true
			}
			ci, known := fns[callee]
			if !known {
				return true // other module or bodyless: out of scope
			}
			if _, already := hot[callee]; already {
				return true
			}
			if analysis.CommentGroupMarked(ci.decl.Doc, analysis.ColdPathMarker) {
				return true
			}
			hot[callee] = via
			queue = append(queue, callee)
			return true
		})
	}

	// Export facts, then report violations, in declaration order.
	for _, fn := range order {
		via, isHot := hot[fn]
		if !isHot {
			continue
		}
		info := fns[fn]
		info.pass.ExportObjectFact(fn, HotFact{Via: via})
		checkHotBody(info.pass, fn, info.decl, via)
	}
	return nil
}

// staticCallee resolves a call to the package-level function or
// method it statically invokes, or nil (builtins, function values,
// interface methods, conversions).
func staticCallee(pass *analysis.Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := pass.TypesInfo.Uses[id].(*types.Func)
	return fn
}

// checkHotBody reports the allocation-inducing constructs inside one
// hot function.
func checkHotBody(pass *analysis.Pass, fn *types.Func, fd *ast.FuncDecl, via string) {
	where := fn.Name()
	if via != where {
		where += " (hotpath via " + via + ")"
	}
	uncapped := uncappedLocals(pass, fd)

	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if isPanicCall(pass, n) {
				return false // a panic path runs at most once; its allocations are fine
			}
			checkCall(pass, n, where, uncapped)
		case *ast.FuncLit:
			pass.Reportf(n.Pos(),
				"func literal in hot function %s; closures escape to the heap when captured", where)
		}
		return true
	}
	ast.Inspect(fd.Body, walk)
}

// uncappedLocals collects the function-local slice variables declared
// without a capacity plan: `var s []T`, `s := []T{}`, or a make with
// no capacity argument. Appending to these in steady state reallocates
// geometrically on the hot path. Parameters, fields and package-level
// slices are excluded — their capacity is the caller's contract.
func uncappedLocals(pass *analysis.Pass, fd *ast.FuncDecl) map[*types.Var]bool {
	out := map[*types.Var]bool{}
	mark := func(name *ast.Ident, init ast.Expr) {
		v, ok := pass.TypesInfo.Defs[name].(*types.Var)
		if !ok {
			return
		}
		if _, isSlice := v.Type().Underlying().(*types.Slice); !isSlice {
			return
		}
		if init == nil {
			out[v] = true // var s []T
			return
		}
		switch e := ast.Unparen(init).(type) {
		case *ast.CompositeLit:
			if len(e.Elts) == 0 {
				out[v] = true // s := []T{}
			}
		case *ast.CallExpr:
			if builtinName(pass, e) == "make" && len(e.Args) < 3 {
				out[v] = true // make without an explicit capacity
			}
		}
	}
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i, lhs := range n.Lhs {
					if id, ok := lhs.(*ast.Ident); ok && pass.TypesInfo.Defs[id] != nil {
						mark(id, n.Rhs[i])
					}
				}
			}
		case *ast.ValueSpec:
			for i, name := range n.Names {
				var init ast.Expr
				if i < len(n.Values) {
					init = n.Values[i]
				}
				mark(name, init)
			}
		}
		return true
	})
	return out
}

// builtinName returns the name of the builtin a call invokes, or "".
func builtinName(pass *analysis.Pass, call *ast.CallExpr) string {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return ""
	}
	if b, ok := pass.TypesInfo.Uses[id].(*types.Builtin); ok {
		return b.Name()
	}
	return ""
}

// isPanicCall reports whether the call is the builtin panic.
func isPanicCall(pass *analysis.Pass, call *ast.CallExpr) bool {
	return builtinName(pass, call) == "panic"
}

// checkCall reports one call expression's allocation hazards.
func checkCall(pass *analysis.Pass, call *ast.CallExpr, where string, uncapped map[*types.Var]bool) {
	// Builtins: make allocates; append to an uncapped local grows.
	if name := builtinName(pass, call); name != "" {
		switch name {
		case "make":
			pass.Reportf(call.Pos(),
				"make in hot function %s; allocate in setup or reuse engine-owned scratch", where)
		case "append":
			if len(call.Args) > 0 {
				if base, ok := ast.Unparen(call.Args[0]).(*ast.Ident); ok {
					if v, ok := pass.TypesInfo.Uses[base].(*types.Var); ok && uncapped[v] {
						pass.Reportf(call.Pos(),
							"append to uncapped local slice %s in hot function %s; preallocate with a capacity or reuse scratch",
							base.Name, where)
					}
				}
			}
		}
		return
	}

	// fmt's formatting family allocates its result (and boxes every
	// operand on the way in).
	if fn := staticCallee(pass, call); fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "fmt" {
		pass.Reportf(call.Pos(),
			"fmt.%s allocates in hot function %s; format off the hot path", fn.Name(), where)
		return
	}

	// Conversions to interface types box.
	if tv, ok := pass.TypesInfo.Types[call.Fun]; ok && tv.IsType() {
		if isInterface(tv.Type) && len(call.Args) == 1 && !isInterfaceExpr(pass, call.Args[0]) {
			pass.Reportf(call.Pos(),
				"conversion boxes %s into %s in hot function %s",
				typeStr(pass, call.Args[0]), tv.Type.String(), where)
		}
		return
	}

	// Concrete arguments passed to interface parameters box.
	sig := callSignature(pass, call)
	if sig == nil {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case i < params.Len()-1 || (!sig.Variadic() && i < params.Len()):
			pt = params.At(i).Type()
		case sig.Variadic():
			if call.Ellipsis.IsValid() {
				continue // forwarding a slice: no per-element boxing
			}
			pt = params.At(params.Len() - 1).Type().(*types.Slice).Elem()
		default:
			continue
		}
		if !isInterface(pt) || isInterfaceExpr(pass, arg) {
			continue
		}
		pass.Reportf(arg.Pos(),
			"argument %s boxes into interface parameter in hot function %s",
			typeStr(pass, arg), where)
	}
}

// callSignature returns the signature of a (non-builtin,
// non-conversion) call.
func callSignature(pass *analysis.Pass, call *ast.CallExpr) *types.Signature {
	tv, ok := pass.TypesInfo.Types[call.Fun]
	if !ok || tv.Type == nil {
		return nil
	}
	sig, _ := tv.Type.Underlying().(*types.Signature)
	return sig
}

func isInterface(t types.Type) bool {
	_, ok := t.Underlying().(*types.Interface)
	return ok
}

// isInterfaceExpr reports whether the expression already has interface
// type (no boxing on assignment) or is the untyped nil.
func isInterfaceExpr(pass *analysis.Pass, e ast.Expr) bool {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return true // be conservative: no type info, no finding
	}
	if b, ok := tv.Type.(*types.Basic); ok && b.Kind() == types.UntypedNil {
		return true
	}
	return isInterface(tv.Type)
}

func typeStr(pass *analysis.Pass, e ast.Expr) string {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Type == nil {
		return "value"
	}
	return types.TypeString(tv.Type, types.RelativeTo(pass.Pkg))
}
