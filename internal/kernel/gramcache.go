// Gram-block caching: sibling partitions in a lattice search share most of
// their blocks, so the per-block Gram matrices — the expensive part of
// scoring a configuration — are cached per dataset and reused across
// candidates (and across the worker evaluators of a parallel search).
package kernel

import (
	"sync/atomic"

	"repro/internal/linalg"
	"repro/internal/partition"
)

// BlockGramCache memoizes per-block Gram matrices for one fixed dataset and
// block-kernel factory in a BlockStore, beside a store of the contiguous
// column blocks feeding the vectorized Gram path. It is safe for concurrent
// use: a parallel search shares one cache across all worker evaluators.
//
// Cached matrices are shared read-only; callers must combine them into a
// separate output buffer (see GramForPartition) and never mutate them.
type BlockGramCache struct {
	x       [][]float64
	factory BlockKernelFactory
	exact   atomic.Bool
	grams   *BlockStore[*linalg.Matrix, float64]
	cols    *BlockStore[*linalg.Matrix, float64]
}

// NewBlockGramCache returns a cache over dataset rows x using factory to
// build each block kernel. limit bounds the number of retained blocks as in
// NewBlockStore: 0 selects DefaultGramCacheBlocks, negative values disable
// retention; past the bound the oldest blocks are evicted (FIFO).
func NewBlockGramCache(x [][]float64, factory BlockKernelFactory, limit int) *BlockGramCache {
	c := &BlockGramCache{x: x, factory: factory, cols: columnBlocks(x, limit)}
	c.grams = NewBlockStore(limit, c.buildGram, matrixData)
	return c
}

// columnBlocks returns a store of the contiguous column blocks of x, so a
// block's features are gathered once per dataset rather than re-sliced per
// instance pair.
func columnBlocks(x [][]float64, limit int) *BlockStore[*linalg.Matrix, float64] {
	return NewBlockStore(limit, func(feats []int) (*linalg.Matrix, error) {
		return linalg.FromRowsCols(x, feats), nil
	}, matrixData)
}

// matrixData exposes a matrix's entries to a BlockStore.
func matrixData(m *linalg.Matrix) []float64 { return m.Data }

// SetExact forces every block Gram through the pairwise Eval path (strict
// reproduction runs — see the determinism contract in blockgram.go). Set it
// before the cache is shared across goroutines; already-cached blocks are
// kept, so flip it only on a fresh cache.
func (c *BlockGramCache) SetExact(exact bool) { c.exact.Store(exact) }

// BlockMatrix returns the contiguous column-block matrix of the given
// 0-based feature indices, extracting and caching it on first use. The
// returned matrix is shared and must not be mutated.
func (c *BlockGramCache) BlockMatrix(feats []int) *linalg.Matrix {
	sub, _ := c.cols.Block(feats) // extraction cannot fail
	return sub
}

// Len reports how many block Grams are currently cached.
func (c *BlockGramCache) Len() int { return c.grams.Len() }

// Bytes reports the total size of the cached Gram matrices in bytes.
func (c *BlockGramCache) Bytes() int64 { return c.grams.Bytes() }

// BlockGram returns the Gram matrix of the block kernel on the given
// 0-based feature indices, computing and caching it on first use. The
// returned matrix is shared and must not be mutated.
//
// Block kernels that implement BlockGramKernel are evaluated through the
// vectorized path over the cached contiguous column block (unless SetExact
// forced the pairwise path); everything else falls back to per-pair Eval.
func (c *BlockGramCache) BlockGram(feats []int) *linalg.Matrix {
	g, _ := c.grams.Block(feats) // buildGram cannot fail
	return g
}

// buildGram computes one block's Gram for the store.
func (c *BlockGramCache) buildGram(feats []int) (*linalg.Matrix, error) {
	base := c.factory(feats)
	if !c.exact.Load() {
		if bg, ok := base.(BlockGramKernel); ok {
			g := linalg.NewMatrix(len(c.x), len(c.x))
			if bg.GramInto(g, c.BlockMatrix(feats)) {
				return g, nil
			}
		}
	}
	return GramPairwise(Subspace{Base: base, Features: feats}, c.x), nil
}

// AssemblyScratch holds the reusable per-caller buffers of
// GramForPartitionScratch, AlignmentForPartitionScratch and
// ApproxGramCache.FactorForPartitionScratch. The zero value is ready; a
// scratch belongs to one goroutine.
type AssemblyScratch = BlockScratch[*linalg.Matrix, float64]

// GramForPartition assembles the full Gram matrix of the multiple-kernel
// configuration induced by p from the cached per-block Grams, writing into
// out (reallocated if nil or mis-sized) and returning it.
//
// The assembly is bit-identical to Gram(FromPartition(p, factory, combiner), x):
// blocks are combined in partition.Blocks() order with the same per-entry
// operation order (weighted sum with weight 1/numBlocks, or product), so a
// search scoring through the cache returns the exact floating-point scores
// of the uncached path.
func (c *BlockGramCache) GramForPartition(p partition.Partition, combiner Combiner, out *linalg.Matrix) *linalg.Matrix {
	var sc AssemblyScratch
	return c.GramForPartitionScratch(p, combiner, out, &sc)
}

// GramForPartitionScratch is GramForPartition with caller-owned scratch:
// once every block of p is cached, assembling a candidate's Gram performs
// no allocation at all. It is the per-candidate path of the mkl evaluators
// for objectives that need the assembled matrix.
//
//iotml:hotpath
func (c *BlockGramCache) GramForPartitionScratch(p partition.Partition, combiner Combiner, out *linalg.Matrix, sc *AssemblyScratch) *linalg.Matrix {
	n := len(c.x)
	if out == nil || out.Rows != n || out.Cols != n {
		out = linalg.NewMatrix(n, n)
	}
	grams, _ := c.grams.Partition(p, sc) // buildGram cannot fail
	CombineBlocks(out.Data, grams, combiner)
	return out
}

// AlignmentForPartitionScratch returns the centred kernel-target alignment
// of the CombineSum configuration induced by p against labels y, read
// straight from the cached blocks by CenteredAlignment with weight
// 1/numBlocks — no Gram is assembled. The score is bit-identical to
// CenteredAlignment over the GramForPartitionScratch output with weight 1.
//
//iotml:hotpath
func (c *BlockGramCache) AlignmentForPartitionScratch(p partition.Partition, y []int, sc *AssemblyScratch, as *AlignScratch) float64 {
	grams, _ := c.grams.Partition(p, sc) // buildGram cannot fail
	return CenteredAlignment(grams, 1/float64(len(grams)), y, as)
}
