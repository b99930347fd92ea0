package engine

import (
	"math"
	"testing"

	"repro/internal/kernel"
	"repro/internal/partition"
)

// pairwiseSquaredDistances32 is the reference distance pass of the f32 RBF
// block build: ‖xᵢ‖² + ‖xⱼ‖² − 2⟨xᵢ,xⱼ⟩ with float64 accumulation, clamped
// at zero and rounded to float32, diagonal exactly zero.
func pairwiseSquaredDistances32(dst, x *M32) *M32 {
	n, d := x.Rows, x.Cols
	dst = Reshape32(dst, n, n)
	norms := make([]float64, n)
	for i := 0; i < n; i++ {
		s := 0.0
		for _, v := range x.Data[i*d : (i+1)*d] {
			s += float64(v) * float64(v)
		}
		norms[i] = s
	}
	for i := 0; i < n; i++ {
		ri := x.Data[i*d : (i+1)*d]
		dst.Data[i*n+i] = 0
		for j := i + 1; j < n; j++ {
			rj := x.Data[j*d : (j+1)*d]
			dot := 0.0
			for k, v := range ri {
				dot += float64(v) * float64(rj[k])
			}
			v := norms[i] + norms[j] - 2*dot
			if v < 0 {
				v = 0
			}
			f := float32(v)
			dst.Data[i*n+j] = f
			dst.Data[j*n+i] = f
		}
	}
	return dst
}

// rbfGram32ThreePass is the reference f32 RBF block: distances, then exp
// over the upper triangle, mirrored entry by entry.
func rbfGram32ThreePass(x *M32, gamma float64) *M32 {
	n := x.Rows
	dst := pairwiseSquaredDistances32(nil, x)
	for i := 0; i < n; i++ {
		dst.Data[i*n+i] = 1
		for j := i + 1; j < n; j++ {
			v := float32(math.Exp(-gamma * float64(dst.Data[i*n+j])))
			dst.Data[i*n+j] = v
			dst.Data[j*n+i] = v
		}
	}
	return dst
}

func TestDense32RBFBlockBitIdenticalToThreePass(t *testing.T) {
	const n, d = 37, 7 // n is not a multiple of the mirror band
	x := synthRows(n, d, 21)
	// Duplicate rows: off-diagonal distances of exactly zero.
	copy(x[5], x[2])
	copy(x[30], x[29])
	const base = 0.9
	c := NewDense32(x, kernel.RBFFactory(base), 0)
	for w := 1; w <= d; w++ {
		feats := make([]int, w)
		for i := range feats {
			feats[i] = (i*3 + w) % d
		}
		got := c.BlockGram(feats)
		xb, _ := c.cols.Block(feats)
		want := rbfGram32ThreePass(xb, base/float64(w))
		for i := range want.Data {
			if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
				t.Fatalf("width %d entry (%d,%d): one-pass %v, three-pass %v", w, i/n, i%n, got.Data[i], want.Data[i])
			}
		}
	}
}

// signLabels labels each row by the sign of its first feature.
func signLabels(x [][]float64) []int {
	y := make([]int, len(x))
	for i, r := range x {
		y[i] = -1
		if r[0] > 0 {
			y[i] = 1
		}
	}
	return y
}

// roundRobin is the partition of d features into b blocks by j mod b.
func roundRobin(d, b int) partition.Partition {
	rgs := make([]int, d)
	for j := range rgs {
		rgs[j] = j % b
	}
	return partition.FromRGS(rgs)
}

func TestDense32AlignmentMatchesMaterialisedOracle(t *testing.T) {
	const d = 6
	var as kernel.AlignScratch
	for _, n := range []int{1, 2, 3, 17, 64} {
		x := synthRows(n, d, int64(100+n))
		y := signLabels(x)
		c := NewDense32(x, kernel.RBFFactory(1.0), 0)
		var sc Scratch32
		for b := 1; b <= d; b++ {
			p := roundRobin(d, b)
			g := c.GramForPartitionScratch(p, kernel.CombineSum, nil, &sc)
			Center32(g)
			want := Alignment32(g, y)
			got := c.AlignmentForPartitionScratch(p, y, &sc, &as)
			if diff := math.Abs(got - want); diff > Tol32*math.Max(1, math.Abs(want)) {
				t.Fatalf("n=%d B=%d: fused %v, materialised %v (diff %g)", n, b, got, want, diff)
			}
		}
	}
}

// TestDense32AlignmentConstantGramIsZero: RBF blocks over constant
// features are all ones; their sum centres to zero and scores 0 on both
// the fused and the materialised path.
func TestDense32AlignmentConstantGramIsZero(t *testing.T) {
	const n = 17
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		x[i] = []float64{0.25, -2}
		y[i] = 1 - 2*(i%3%2)
	}
	c := NewDense32(x, kernel.RBFFactory(1.0), 0)
	var sc Scratch32
	var as kernel.AlignScratch
	for _, p := range []partition.Partition{partition.FromRGS([]int{0, 0}), partition.FromRGS([]int{0, 1})} {
		g := c.GramForPartitionScratch(p, kernel.CombineSum, nil, &sc)
		Center32(g)
		if want := Alignment32(g, y); want != 0 {
			t.Fatalf("%v: materialised oracle %v, want 0", p, want)
		}
		if got := c.AlignmentForPartitionScratch(p, y, &sc, &as); got != 0 {
			t.Fatalf("%v: fused alignment %v, want 0", p, got)
		}
	}
}
