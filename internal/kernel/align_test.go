package kernel

import (
	"math"
	"testing"

	"repro/internal/linalg"
	"repro/internal/stats"
)

// alignOracle is the materialised reference: assemble Σ_b w·K_b in the
// per-entry order of GramForPartitionScratch, Center, then Alignment.
func alignOracle(blocks []*linalg.Matrix, w float64, y []int) float64 {
	n := len(y)
	g := linalg.NewMatrix(n, n)
	for i := range g.Data {
		acc := 0.0
		for _, b := range blocks {
			acc += w * b.Data[i]
		}
		g.Data[i] = acc
	}
	Center(g)
	return Alignment(g, y)
}

// alignLabels draws ±1 labels and a dataset whose first column carries
// them, so alignments are well away from zero.
func alignLabels(n int, seed int64) ([]int, [][]float64) {
	rng := stats.NewRNG(seed)
	y := make([]int, n)
	x := make([][]float64, n)
	for i := range y {
		y[i] = 1
		if rng.Float64() < 0.5 {
			y[i] = -1
		}
		x[i] = []float64{float64(y[i]) + 0.7*rng.NormFloat64(), rng.NormFloat64(), rng.NormFloat64()}
	}
	return y, x
}

// alignBlocks builds b symmetric block Grams over x: RBF blocks of
// different bandwidths on alternating columns, with a linear block mixed in.
func alignBlocks(x [][]float64, b int) []*linalg.Matrix {
	xm := linalg.FromRows(x)
	out := make([]*linalg.Matrix, b)
	for i := range out {
		g := linalg.NewMatrix(len(x), len(x))
		col := linalg.ExtractColumns(xm, []int{i % 3})
		if i == 2 {
			Linear{}.GramInto(g, col)
		} else {
			RBF{Gamma: 0.3 + 0.4*float64(i)}.GramInto(g, col)
		}
		out[i] = g
	}
	return out
}

func blockData(blocks []*linalg.Matrix) [][]float64 {
	out := make([][]float64, len(blocks))
	for i, b := range blocks {
		out[i] = b.Data
	}
	return out
}

func assertRelClose(t *testing.T, what string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol*math.Max(math.Abs(want), math.SmallestNonzeroFloat64) {
		t.Fatalf("%s: fused %v, materialised %v (rel diff %.3g > %g)", what, got, want, math.Abs(got-want)/math.Abs(want), tol)
	}
}

func TestCenteredAlignmentMatchesMaterialisedOracle(t *testing.T) {
	var sc AlignScratch // reused across sizes: the scratch must reshape cleanly
	for _, n := range []int{1, 2, 3, 17, 64} {
		y, x := alignLabels(n, int64(n))
		for b := 1; b <= 6; b++ {
			blocks := alignBlocks(x, b)
			w := 1 / float64(b)
			want := alignOracle(blocks, w, y)
			got := CenteredAlignment(blockData(blocks), w, y, &sc)
			if n == 1 {
				// One instance centres to the zero matrix.
				if got != 0 || want != 0 {
					t.Fatalf("n=1 B=%d: fused %v, materialised %v, want 0", b, got, want)
				}
				continue
			}
			assertRelClose(t, "random blocks", got, want, 1e-12)
		}
	}
}

// TestCenteredAlignmentNearConstantGram pins the case the
// ‖K‖² − (2/n)‖r‖² + s²/n² expansion would get wrong: a Gram that is a
// large constant plus a tiny structured perturbation, where the centred
// entries are eleven orders of magnitude below the raw ones.
func TestCenteredAlignmentNearConstantGram(t *testing.T) {
	y, x := alignLabels(64, 7)
	blocks := alignBlocks(x, 3)
	for _, b := range blocks {
		for i := range b.Data {
			b.Data[i] = 1e3 + 1e-8*b.Data[i]
		}
	}
	var sc AlignScratch
	for nb := 1; nb <= 3; nb++ {
		w := 1 / float64(nb)
		want := alignOracle(blocks[:nb], w, y)
		got := CenteredAlignment(blockData(blocks[:nb]), w, y, &sc)
		if math.Abs(want) < 0.05 {
			t.Fatalf("B=%d: oracle alignment %v lost the perturbation's structure", nb, want)
		}
		assertRelClose(t, "near-constant", got, want, 1e-12)
	}
}

// TestCenteredAlignmentConstantGramIsZero: a constant Gram (an RBF block
// over a constant feature is all ones) centres to zero and scores 0, as
// the materialised path does.
func TestCenteredAlignmentConstantGramIsZero(t *testing.T) {
	y, _ := alignLabels(17, 3)
	n := len(y)
	var sc AlignScratch
	for _, v := range []float64{0, 1, 0.5, 4} {
		for _, nb := range []int{1, 2, 4} {
			blocks := make([]*linalg.Matrix, nb)
			for i := range blocks {
				blocks[i] = linalg.NewMatrix(n, n)
				for j := range blocks[i].Data {
					blocks[i].Data[j] = v
				}
			}
			w := 1 / float64(nb)
			if want := alignOracle(blocks, w, y); want != 0 {
				t.Fatalf("v=%v B=%d: materialised oracle = %v, want 0", v, nb, want)
			}
			if got := CenteredAlignment(blockData(blocks), w, y, &sc); got != 0 {
				t.Fatalf("v=%v B=%d: fused = %v, want 0", v, nb, got)
			}
		}
	}
}

// TestCenteredAlignmentSingleAssembledBlock: the uncached paths align the
// already assembled Gram as one block with weight 1; that must be
// bit-identical to aligning its blocks with weight 1/B.
func TestCenteredAlignmentSingleAssembledBlock(t *testing.T) {
	y, x := alignLabels(33, 5)
	var sc AlignScratch
	for b := 1; b <= 6; b++ {
		blocks := alignBlocks(x, b)
		w := 1 / float64(b)
		assembled := linalg.NewMatrix(len(y), len(y))
		for i := range assembled.Data {
			acc := 0.0
			for _, g := range blocks {
				acc += w * g.Data[i]
			}
			assembled.Data[i] = acc
		}
		fused := CenteredAlignment(blockData(blocks), w, y, &sc)
		single := CenteredAlignment([][]float64{assembled.Data}, 1, y, &sc)
		if fused != single {
			t.Fatalf("B=%d: blocks %v, assembled %v, want bit-identical", b, fused, single)
		}
	}
}

// rbfGramThreePass is the reference block build: the pairwise squared
// distances, then exp over the upper triangle, mirrored entry by entry.
func rbfGramThreePass(x *linalg.Matrix, gamma float64) *linalg.Matrix {
	n := x.Rows
	dst := linalg.PairwiseSquaredDistancesInto(nil, x)
	for i := 0; i < n; i++ {
		dst.Data[i*n+i] = 1
		for j := i + 1; j < n; j++ {
			v := math.Exp(-gamma * dst.Data[i*n+j])
			dst.Data[i*n+j] = v
			dst.Data[j*n+i] = v
		}
	}
	return dst
}

func TestRBFGramIntoBitIdenticalToThreePass(t *testing.T) {
	const n = 37 // not a multiple of the mirror band
	clamped := 0
	for d := 1; d <= 7; d++ {
		rows := testRows(n, d, int64(d))
		// Near-identical rows of large norm: the distance expansion cancels
		// below zero for some pairs, so the clamp is exercised.
		for k := 0; k < 8; k++ {
			for c := range rows[29+k] {
				rows[29+k][c] = 1e4 + float64(c) + float64(k)*1e-9
			}
		}
		x := linalg.FromRows(rows)
		norms := linalg.RowSquaredNorms(nil, x)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				dot := 0.0
				for k := 0; k < d; k++ {
					dot += x.At(i, k) * x.At(j, k)
				}
				if norms[i]+norms[j]-2*dot < 0 {
					clamped++
				}
			}
		}
		want := rbfGramThreePass(x, 0.45)
		got := linalg.NewMatrix(n, n)
		RBF{Gamma: 0.45}.GramInto(got, x)
		for i := range want.Data {
			if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
				t.Fatalf("d=%d entry (%d,%d): one-pass %v, three-pass %v", d, i/n, i%n, got.Data[i], want.Data[i])
			}
		}
	}
	if clamped == 0 {
		t.Fatal("no distance needed the clamp; the test data no longer exercises it")
	}
}
