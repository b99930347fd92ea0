// Package hotpathalloc turns the zero-alloc contract of the evaluation
// fast path (ROADMAP PRs 2/3) from a benchmark gate into a compile-time
// gate: functions annotated //iotml:hotpath in their doc comment must not
// contain allocation-prone constructs — fmt formatting, append growth, or
// boxing of float data into interfaces. Cold error/panic paths inside a
// hot function are exempted line-by-line with
// //iotml:allow hotpathalloc -- <why>.
//
// One append shape is recognized as amortized-zero-alloc and allowed
// without annotation: appending to a variable the same function resets
// with `x = x[:0]` (the truncate-then-refill scratch idiom). Such a
// slice retains its backing array across calls, so appends stop growing
// it after warm-up.
package hotpathalloc

import (
	"go/ast"
	"go/token"
	"go/types"

	"repro/internal/analyzers"
)

// Analyzer is the hotpathalloc pass.
var Analyzer = &analyzers.Analyzer{
	Name: "hotpathalloc",
	Doc: `flags allocation-prone constructs (fmt formatting, append growth, interface boxing of float data) inside functions annotated //iotml:hotpath

The evaluation fast path is zero-alloc in steady state
(BenchmarkScore_* holds it at 4 allocs/op); this pass stops a new
fmt.Sprintf, an unsized append, or an accidental []float64-to-any
boxing from landing in an annotated function and silently re-growing
the alloc count until the bench gate trips.`,
	Run: run,
}

func run(pass *analyzers.Pass) error {
	for _, f := range pass.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !analyzers.HasDirective(fd.Doc, "hotpath") {
				continue
			}
			checkHot(pass, fd)
		}
	}
	return nil
}

func checkHot(pass *analyzers.Pass, fd *ast.FuncDecl) {
	name := fd.Name.Name
	scratch := truncatedSlices(fd.Body)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.CallExpr:
			checkCall(pass, st, name, scratch)
		case *ast.AssignStmt:
			for i, lhs := range st.Lhs {
				if len(st.Lhs) != len(st.Rhs) {
					break
				}
				checkBoxing(pass, pass.Info.TypeOf(lhs), st.Rhs[i], name)
			}
		case *ast.ValueSpec:
			if st.Type == nil {
				break
			}
			for _, v := range st.Values {
				checkBoxing(pass, pass.Info.TypeOf(st.Type), v, name)
			}
		case *ast.ReturnStmt:
			sig, ok := pass.Info.Defs[fd.Name].Type().(*types.Signature)
			if !ok || sig.Results().Len() != len(st.Results) {
				break
			}
			for i, r := range st.Results {
				checkBoxing(pass, sig.Results().At(i).Type(), r, name)
			}
		}
		return true
	})
}

func checkCall(pass *analyzers.Pass, call *ast.CallExpr, hot string, scratch map[string]bool) {
	if id, ok := call.Fun.(*ast.Ident); ok {
		if _, isB := pass.Info.Uses[id].(*types.Builtin); isB && id.Name == "append" {
			if len(call.Args) > 0 {
				if key, ok := chainKey(call.Args[0]); ok && scratch[key] {
					return // truncate-then-refill scratch: amortized zero-alloc
				}
			}
			pass.Reportf(call.Pos(),
				"append inside //iotml:hotpath function %s may grow its backing array; preallocate capacity, reset scratch with x = x[:0] before refilling, or index into reused storage", hot)
			return
		}
	}
	if sel, ok := call.Fun.(*ast.SelectorExpr); ok && pass.ImportedPkg(sel.X) == "fmt" {
		pass.Reportf(call.Pos(),
			"fmt.%s allocates (formats into a fresh string) inside //iotml:hotpath function %s; move formatting to a cold path or annotate the cold branch with //iotml:allow hotpathalloc -- <why>", sel.Sel.Name, hot)
		return
	}
	// Interface-typed parameters box concrete float arguments.
	tv, ok := pass.Info.Types[call.Fun]
	if !ok || tv.IsType() {
		if ok && tv.IsType() && len(call.Args) == 1 {
			// Conversion: interface(T) boxes too.
			checkBoxing(pass, tv.Type, call.Args[0], hot)
		}
		return
	}
	sig, ok := tv.Type.Underlying().(*types.Signature)
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		if sig.Variadic() && i >= params.Len()-1 {
			if call.Ellipsis.IsValid() {
				continue // f(s...) passes the slice through unboxed
			}
			if s, ok := params.At(params.Len() - 1).Type().(*types.Slice); ok {
				pt = s.Elem()
			}
		} else if i < params.Len() {
			pt = params.At(i).Type()
		}
		checkBoxing(pass, pt, arg, hot)
	}
}

// truncatedSlices collects the variables (identifiers or selector chains,
// keyed by their dotted path) that body resets with `x = x[:0]` — the
// scratch slices whose appends are amortized-zero-alloc.
func truncatedSlices(body *ast.BlockStmt) map[string]bool {
	out := map[string]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || as.Tok != token.ASSIGN || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, lhs := range as.Lhs {
			sl, ok := as.Rhs[i].(*ast.SliceExpr)
			if !ok || sl.Low != nil || sl.Max != nil {
				continue
			}
			hi, ok := sl.High.(*ast.BasicLit)
			if !ok || hi.Kind != token.INT || hi.Value != "0" {
				continue
			}
			lk, lok := chainKey(lhs)
			xk, xok := chainKey(sl.X)
			if lok && xok && lk == xk {
				out[lk] = true
			}
		}
		return true
	})
	return out
}

// chainKey renders an identifier or selector chain (x, sc.feats,
// e.scratch.buf) as its dotted path. Other expression shapes are not
// eligible for the truncate-then-refill exemption.
func chainKey(e ast.Expr) (string, bool) {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name, true
	case *ast.SelectorExpr:
		base, ok := chainKey(v.X)
		if !ok {
			return "", false
		}
		return base + "." + v.Sel.Name, true
	}
	return "", false
}

// checkBoxing reports when a concrete float value or float slice is
// converted to an interface-typed destination.
func checkBoxing(pass *analyzers.Pass, dst types.Type, src ast.Expr, hot string) {
	if dst == nil || !types.IsInterface(dst) || typeSetParam(dst) {
		return
	}
	st := pass.Info.TypeOf(src)
	if st == nil || !isFloaty(st) {
		return
	}
	pass.Reportf(src.Pos(),
		"boxes %s into an interface inside //iotml:hotpath function %s (allocates per value); keep float data concrete", st.String(), hot)
}

// typeSetParam reports a type parameter constrained by a type set
// (float32 | float64, say): every type it can stand for is concrete, so a
// value stored in it is never boxed. A parameter constrained only by
// methods (any) may stand for an interface and is still checked.
func typeSetParam(t types.Type) bool {
	tp, ok := t.(*types.TypeParam)
	if !ok {
		return false
	}
	iface, ok := tp.Constraint().Underlying().(*types.Interface)
	return ok && !iface.IsMethodSet()
}

// isFloaty reports float scalars and float slices — the payload types the
// hot path moves around.
func isFloaty(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return u.Info()&types.IsFloat != 0
	case *types.Slice:
		if b, ok := u.Elem().Underlying().(*types.Basic); ok {
			return b.Info()&types.IsFloat != 0
		}
	}
	return false
}
