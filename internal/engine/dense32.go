// Dense32 is the Float32 backend's Gram assembly: a concurrency-safe
// per-block float32 Gram cache kept in a kernel.BlockStore — the store of
// kernel.BlockGramCache, with the same block keys, FIFO retention and
// partition scan, and the same kernel.CombineBlocks assembly — plus the
// worker-owned ridge solver the evaluator threads through it.
//
// Determinism: each block Gram is produced by one deterministic routine
// over the cached float32 column block — two workers racing on a cold
// block compute identical matrices and the first store wins — and the
// per-entry combine accumulates in float64 in partition-block order, so
// assembled Grams (and therefore scores) are bit-identical at every worker
// count, matching the reference backend's parallel-equivalence contract.
package engine

import (
	"math"

	"repro/internal/kernel"
	"repro/internal/linalg"
	"repro/internal/partition"
)

// Dense32 memoizes per-block float32 Gram matrices for one fixed dataset
// and block-kernel factory, beside a store of the float32 column blocks
// feeding the native routines — the dataset is narrowed to f32 once per
// block, not per candidate. Safe for concurrent use; cached matrices are
// shared read-only and must be combined into a separate output buffer.
type Dense32 struct {
	x       [][]float64
	factory kernel.BlockKernelFactory
	grams   *kernel.BlockStore[*M32, float32]
	cols    *kernel.BlockStore[*M32, float32]
}

// NewDense32 returns a float32 block-Gram cache over dataset rows x using
// factory to build each block kernel. limit follows kernel.NewBlockStore:
// 0 selects kernel.DefaultGramCacheBlocks, negative disables retention
// (every block is recomputed).
func NewDense32(x [][]float64, factory kernel.BlockKernelFactory, limit int) *Dense32 {
	c := &Dense32{x: x, factory: factory}
	c.grams = kernel.NewBlockStore(limit, c.buildGram, m32Data)
	c.cols = kernel.NewBlockStore(limit, func(feats []int) (*M32, error) {
		sub := NewM32(len(x), len(feats))
		for i, r := range x {
			dstRow := sub.Data[i*len(feats) : (i+1)*len(feats)]
			for k, f := range feats {
				dstRow[k] = float32(r[f])
			}
		}
		return sub, nil
	}, m32Data)
	return c
}

// m32Data exposes a matrix's entries to a kernel.BlockStore.
func m32Data(m *M32) []float32 { return m.Data }

// Len reports how many block Grams are currently cached.
func (c *Dense32) Len() int { return c.grams.Len() }

// BlockGram returns the float32 Gram matrix of the block kernel on the
// given 0-based feature indices, computing and caching it on first use.
// The returned matrix is shared and must not be mutated.
func (c *Dense32) BlockGram(feats []int) *M32 {
	g, _ := c.grams.Block(feats) // buildGram cannot fail
	return g
}

// buildGram builds one block's float32 Gram for the store: the elementary
// kernels run natively in f32 storage / f64 accumulation over the cached
// float32 column block; kernels without a native f32 routine fall back to
// the scalar float64 reference and truncate once per entry — still within
// the tolerance contract, just without the memory-traffic win.
func (c *Dense32) buildGram(feats []int) (*M32, error) {
	base := c.factory(feats)
	out := NewM32(len(c.x), len(c.x))
	x, _ := c.cols.Block(feats) // extraction cannot fail
	if gramInto32(out, base, x) {
		return out, nil
	}
	g := kernel.GramPairwise(kernel.Subspace{Base: base, Features: feats}, c.x)
	return From64(out, g), nil
}

// gramInto32 fills dst with the block kernel's Gram over the float32
// column block x through the native f32 routines, reporting false (dst
// unspecified) when the kernel type has no native path.
//
//iotml:hotpath
func gramInto32(dst *M32, k kernel.Kernel, x *M32) bool {
	switch kk := k.(type) {
	case kernel.Linear:
		Syrk32(dst, x)
		return true
	case kernel.Polynomial:
		Syrk32(dst, x)
		n := x.Rows
		deg := float64(kk.Degree)
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				v := float32(math.Pow(kk.Gamma*float64(dst.Data[i*n+j])+kk.Coef0, deg))
				dst.Data[i*n+j] = v
				dst.Data[j*n+i] = v
			}
		}
		return true
	case kernel.RBF:
		// One pass over the upper triangle — dot product, distance clamped
		// then rounded to float32, exp — then a banded mirror: the same
		// expressions in the same order as the pairwise-distance-then-exp
		// build, so the block is bit-identical to it.
		n, d := x.Rows, x.Cols
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
			row := dst.Data[i*n : (i+1)*n]
			row[i] = 1
			for j := i + 1; j < n; j++ {
				rj := x.Data[j*d : (j+1)*d]
				dot := 0.0
				for k, v := range ri {
					dot += float64(v) * float64(rj[k])
				}
				dist := norms[i] + norms[j] - 2*dot
				if dist < 0 {
					dist = 0
				}
				row[j] = float32(math.Exp(-kk.Gamma * float64(float32(dist))))
			}
		}
		linalg.MirrorUpper(dst.Data, n)
		return true
	case kernel.Normalized:
		if !gramInto32(dst, kk.Base, x) {
			return false
		}
		n := dst.Rows
		diag := make([]float64, n)
		for i := 0; i < n; i++ {
			diag[i] = float64(dst.Data[i*n+i])
		}
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				v := float32(0)
				if diag[i] > 0 && diag[j] > 0 {
					v = float32(float64(dst.Data[i*n+j]) / math.Sqrt(diag[i]*diag[j]))
				}
				dst.Data[i*n+j] = v
				dst.Data[j*n+i] = v
			}
		}
		return true
	default:
		return false
	}
}

// Scratch32 holds the reusable per-caller buffers of
// GramForPartitionScratch and AlignmentForPartitionScratch. The zero value
// is ready; a scratch belongs to one goroutine — each worker evaluator owns
// its own while sharing the concurrency-safe cache.
type Scratch32 = kernel.BlockScratch[*M32, float32]

// GramForPartitionScratch assembles the full float32 Gram of the
// multiple-kernel configuration induced by p from the cached per-block
// Grams, writing into out (reshaped) and returning it. kernel.CombineBlocks
// combines them in partition.Blocks() order with float64 per-entry
// accumulation — weighted sum with weight 1/numBlocks, or product — the
// float64 cache's assembly, so the two backends differ only by f32
// rounding.
//
//iotml:hotpath
func (c *Dense32) GramForPartitionScratch(p partition.Partition, combiner kernel.Combiner, out *M32, sc *Scratch32) *M32 {
	n := len(c.x)
	out = Reshape32(out, n, n)
	grams, _ := c.grams.Partition(p, sc) // buildGram cannot fail
	kernel.CombineBlocks(out.Data, grams, combiner)
	return out
}

// AlignmentForPartitionScratch returns the centred kernel-target alignment
// of the CombineSum configuration induced by p against labels y, read
// straight from the cached float32 blocks by kernel.CenteredAlignment
// (weight 1/numBlocks, float64 accumulation) — no Gram is assembled, so
// the combined entries never round to float32.
//
//iotml:hotpath
func (c *Dense32) AlignmentForPartitionScratch(p partition.Partition, y []int, sc *Scratch32, as *kernel.AlignScratch) float64 {
	grams, _ := c.grams.Partition(p, sc) // buildGram cannot fail
	return kernel.CenteredAlignment(grams, 1/float64(len(grams)), y, as)
}

// Solver32 is the factor/solve scratch of the Float32 backend: one ridge
// system per CV fold, reusing the float32 regularized-Gram, Cholesky, and
// coefficient buffers across folds and candidates. A Solver32 belongs to
// one goroutine.
type Solver32 struct {
	kreg, chol *M32
	rhs, beta  []float32
}

// RidgeSolve assembles K + diag·I in float32 scratch and factor/solves it,
// mirroring kernelmachine.Ridge.TrainScratch's regularization schedule
// exactly: first λ·n/10, then the heavier 1 + λ·n fallback when the
// Cholesky pivot fails. gram is read-only; the returned coefficients alias
// the solver's scratch and are valid until the next RidgeSolve call.
func (s *Solver32) RidgeSolve(gram *M32, y []int, lambda float64) ([]float32, error) {
	n := len(y)
	s.kreg = Reshape32(s.kreg, n, n)
	if s.chol == nil {
		s.chol = NewM32(n, n)
	}
	assemble := func(diag float64) {
		copy(s.kreg.Data, gram.Data)
		for i := 0; i < n; i++ {
			s.kreg.Data[i*n+i] += float32(diag)
		}
	}
	assemble(lambda * float64(n) / 10)
	if cap(s.rhs) < n {
		s.rhs = make([]float32, n)
	}
	s.rhs = s.rhs[:n]
	for i, v := range y {
		s.rhs[i] = float32(v)
	}
	if err := Cholesky32(s.chol, s.kreg); err != nil {
		// Fall back to a heavier ridge before giving up, as the f64 trainer
		// does.
		assemble(1 + lambda*float64(n))
		if err := Cholesky32(s.chol, s.kreg); err != nil {
			return nil, err
		}
	}
	s.beta = SolveCholesky32(s.beta, s.chol, s.rhs)
	return s.beta, nil
}
