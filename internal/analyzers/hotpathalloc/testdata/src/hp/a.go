// Package hp is the hotpathalloc fixture: allocation-prone constructs are
// flagged only inside functions annotated //iotml:hotpath.
package hp

import "fmt"

func take(v interface{}) { _ = v }

// hot is annotated, so every allocation-prone construct reports.
//
//iotml:hotpath
func hot(dst, src []float64, n int) []float64 {
	dst = append(dst, src...) // want `append`
	s := fmt.Sprintf("%d", n) // want `fmt\.Sprintf`
	_ = s
	take(src[0])               // want `boxes float64`
	var sink interface{} = src // want `boxes \[\]float64`
	_ = sink
	return dst
}

// hotAssign pins boxing through plain assignment and conversion.
//
//iotml:hotpath
func hotAssign(xs []float64) interface{} {
	var out interface{}
	out = xs // want `boxes \[\]float64`
	_ = out
	return interface{}(xs[0]) // want `boxes float64`
}

// hotClean stays quiet: indexing into preallocated scratch, concrete
// types end to end.
//
//iotml:hotpath
func hotClean(dst, src []float64) {
	for i := range src {
		dst[i] = 2 * src[i]
	}
}

// scratch mimics the evaluator scratch structs: persistent slices refilled
// per call.
type scratch struct {
	feats []int
}

// hotScratch pins the truncate-then-refill exemption: appends to a slice
// the function resets with x = x[:0] are amortized-zero-alloc and pass,
// while appends to a never-reset slice still report.
//
//iotml:hotpath
func hotScratch(sc *scratch, src []float64) []float64 {
	sc.feats = sc.feats[:0]
	for i := range src {
		sc.feats = append(sc.feats, i) // reset above: allowed
	}
	var grown []float64
	for _, f := range sc.feats {
		grown = append(grown, src[f]) // want `append`
	}
	return grown
}

// hotAllowed demonstrates the cold-branch escape hatch.
//
//iotml:hotpath
func hotAllowed(x []float64) float64 {
	if len(x) == 0 {
		panic(fmt.Sprintf("empty input")) //iotml:allow hotpathalloc -- cold panic path, never taken in steady state
	}
	return x[0]
}

// hotGeneric stores float64 into a type parameter constrained by a float
// type set: the value stays concrete, nothing is boxed.
//
//iotml:hotpath
func hotGeneric[T float32 | float64](out []T, acc float64) {
	out[0] = T(acc)
}

// cold is unannotated: the same constructs pass.
func cold(dst, src []float64, n int) []float64 {
	dst = append(dst, src...)
	_ = fmt.Sprintf("%d", n)
	take(src[0])
	return dst
}
