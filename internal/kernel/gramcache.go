// Gram-block caching: sibling partitions in a lattice search share most of
// their blocks, so the per-block Gram matrices — the expensive part of
// scoring a configuration — are cached per dataset and reused across
// candidates (and across the worker evaluators of a parallel search).
package kernel

import (
	"strconv"
	"sync"

	"repro/internal/linalg"
	"repro/internal/partition"
)

// DefaultGramCacheBlocks bounds how many distinct feature blocks a
// BlockGramCache retains before it evicts its oldest entries. An
// exhaustive cone over a free block of m features touches 2^m - 1 distinct
// blocks, so the default comfortably covers m <= 10 while keeping worst-case
// memory at DefaultGramCacheBlocks × n² floats.
const DefaultGramCacheBlocks = 1024

// BlockGramCache memoizes per-block Gram matrices for one fixed dataset and
// block-kernel factory. It is safe for concurrent use: a parallel search
// shares one cache across all worker evaluators, so a block computed by any
// worker is reused by every sibling candidate that contains it.
//
// Cached matrices are shared read-only; callers must combine them into a
// separate output buffer (see GramForPartition) and never mutate them.
type BlockGramCache struct {
	x       [][]float64
	factory BlockKernelFactory
	limit   int
	exact   bool

	mu       sync.RWMutex
	maxBytes int64
	bytes    int64
	// order tracks insertion order of the Gram map's keys for FIFO
	// eviction once limit or maxBytes is exceeded.
	order []string
	m     map[string]*linalg.Matrix
	// xm caches the contiguous column-block matrices feeding the vectorized
	// Gram path, so a block's features are gathered once per dataset rather
	// than re-sliced per instance pair (or re-extracted when the Gram map is
	// at its limit).
	xm map[string]*linalg.Matrix
}

// NewBlockGramCache returns a cache over dataset rows x using factory to
// build each block kernel. limit bounds the number of retained blocks:
// 0 selects DefaultGramCacheBlocks, negative values disable retention
// (every block is recomputed — useful only for measuring the cache's win).
// Once the bound is exceeded the oldest cached blocks are evicted (FIFO);
// see SetMaxBytes for an additional byte-denominated bound.
func NewBlockGramCache(x [][]float64, factory BlockKernelFactory, limit int) *BlockGramCache {
	if limit == 0 {
		limit = DefaultGramCacheBlocks
	}
	return &BlockGramCache{
		x: x, factory: factory, limit: limit,
		m:  map[string]*linalg.Matrix{},
		xm: map[string]*linalg.Matrix{},
	}
}

// SetExact forces every block Gram through the pairwise Eval path (strict
// reproduction runs — see the determinism contract in blockgram.go). Set it
// before the cache is shared across goroutines; already-cached blocks are
// kept, so flip it only on a fresh cache.
func (c *BlockGramCache) SetExact(exact bool) {
	c.mu.Lock()
	c.exact = exact
	c.mu.Unlock()
}

// BlockMatrix returns the contiguous column-block matrix of the given
// 0-based feature indices, extracting and caching it on first use. The
// returned matrix is shared and must not be mutated.
func (c *BlockGramCache) BlockMatrix(feats []int) *linalg.Matrix {
	key := blockKey(feats)
	c.mu.RLock()
	sub, ok := c.xm[key]
	c.mu.RUnlock()
	if ok {
		return sub
	}
	sub = linalg.FromRowsCols(c.x, feats)
	c.mu.Lock()
	if prev, ok := c.xm[key]; ok {
		sub = prev
	} else if len(c.xm) < c.limit {
		c.xm[key] = sub
	}
	c.mu.Unlock()
	return sub
}

// SetMaxBytes bounds the total size of the cached Gram matrices (8 bytes
// per float64 entry); 0 disables the byte bound, leaving only the block
// count limit. When a store pushes the cache past the bound, the oldest
// blocks are evicted until it fits again — the most recent block is always
// retained, so a single over-budget block still serves its candidate.
// Eviction only drops the cache's own references: matrices already handed
// out stay valid (shared read-only), and a re-request recomputes the block
// through the same deterministic path, so assembled Grams are bit-identical
// with or without eviction.
func (c *BlockGramCache) SetMaxBytes(b int64) {
	c.mu.Lock()
	c.maxBytes = b
	c.evictLocked()
	c.mu.Unlock()
}

// Len reports how many block Grams are currently cached.
func (c *BlockGramCache) Len() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.m)
}

// Bytes reports the total size of the cached Gram matrices in bytes.
func (c *BlockGramCache) Bytes() int64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.bytes
}

// evictLocked drops the oldest cached Grams (FIFO) until both the block
// count and byte bounds hold, always keeping the newest entry. Callers hold
// the write lock.
func (c *BlockGramCache) evictLocked() {
	for len(c.order) > 1 && (len(c.m) > c.limit || (c.maxBytes > 0 && c.bytes > c.maxBytes)) {
		old := c.order[0]
		c.order = c.order[1:]
		if g, ok := c.m[old]; ok {
			c.bytes -= int64(len(g.Data)) * 8
			delete(c.m, old)
		}
	}
}

// blockKey fingerprints a block by its sorted 0-based feature indices.
// Blocks coming from partition.Blocks() are already sorted, so the key is
// canonical without re-sorting.
func blockKey(feats []int) string {
	buf := make([]byte, 0, 4*len(feats))
	for i, f := range feats {
		if i > 0 {
			buf = append(buf, ',')
		}
		buf = strconv.AppendInt(buf, int64(f), 10)
	}
	return string(buf)
}

// BlockGram returns the Gram matrix of the block kernel on the given
// 0-based feature indices, computing and caching it on first use. The
// returned matrix is shared and must not be mutated.
//
// Block kernels that implement BlockGramKernel are evaluated through the
// vectorized path over the cached contiguous column block (unless SetExact
// forced the pairwise path); everything else falls back to per-pair Eval.
func (c *BlockGramCache) BlockGram(feats []int) *linalg.Matrix {
	return c.blockGram([]byte(blockKey(feats)), feats)
}

// blockGram is BlockGram keyed by a caller-owned byte fingerprint: the
// cache-hit lookup converts key with the compiler's no-alloc map[string]
// byte-slice lookup, so the hot path (every block of every candidate in a
// lattice search hits after its first evaluation) allocates nothing; the
// key string is materialized only when a newly computed block is stored.
func (c *BlockGramCache) blockGram(key []byte, feats []int) *linalg.Matrix {
	c.mu.RLock()
	g, ok := c.m[string(key)]
	exact := c.exact
	c.mu.RUnlock()
	if ok {
		return g
	}
	// Compute outside the lock: two workers may race on the same block and
	// both compute it, but the result is identical and the first store wins.
	// feats may be a caller-reused scratch buffer and factories retain their
	// feature slice, so the (cold) compute path works on a private copy.
	feats = append([]int(nil), feats...)
	base := c.factory(feats)
	if !exact {
		if bg, ok := base.(BlockGramKernel); ok {
			fast := linalg.NewMatrix(len(c.x), len(c.x))
			if bg.GramInto(fast, c.BlockMatrix(feats)) {
				g = fast
			}
		}
	}
	if g == nil {
		g = GramPairwise(Subspace{Base: base, Features: feats}, c.x)
	}
	c.mu.Lock()
	if prev, ok := c.m[string(key)]; ok {
		g = prev
	} else if c.limit > 0 {
		ks := string(key)
		c.m[ks] = g
		c.order = append(c.order, ks)
		c.bytes += int64(len(g.Data)) * 8
		c.evictLocked()
	}
	c.mu.Unlock()
	return g
}

// AssemblyScratch holds the reusable per-caller buffers of
// GramForPartitionScratch and AlignmentForPartitionScratch (feature lists,
// block keys, the gathered per-block Grams and their data slices). The zero
// value is ready; a scratch belongs to one goroutine — each worker
// evaluator of a parallel search owns its own while sharing the
// concurrency-safe cache.
type AssemblyScratch struct {
	feats  []int
	keyBuf []byte
	grams  []*linalg.Matrix
	data   [][]float64
}

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

// partitionBlocks gathers the cached Gram of every block of p into
// sc.grams, in partition.Blocks() order (block index ascending, elements
// ascending), re-deriving each block's features by an RGS scan and looking
// it up by a byte-slice key, so a fully cached partition allocates nothing.
//
//iotml:hotpath
func (c *BlockGramCache) partitionBlocks(p partition.Partition, sc *AssemblyScratch) []*linalg.Matrix {
	d := p.N()
	sc.grams = sc.grams[:0]
	for b := 0; b < p.NumBlocks(); b++ {
		sc.feats = sc.feats[:0]
		for e := 1; e <= d; e++ {
			if p.BlockOf(e) == b {
				sc.feats = append(sc.feats, e-1)
			}
		}
		sc.keyBuf = sc.keyBuf[:0]
		for i, f := range sc.feats {
			if i > 0 {
				sc.keyBuf = append(sc.keyBuf, ',')
			}
			sc.keyBuf = strconv.AppendInt(sc.keyBuf, int64(f), 10)
		}
		sc.grams = append(sc.grams, c.blockGram(sc.keyBuf, sc.feats))
	}
	return sc.grams
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
	grams := c.partitionBlocks(p, sc)
	if combiner == CombineProduct {
		for i := 0; i < n*n; i++ {
			acc := 1.0
			for _, g := range grams {
				acc *= g.Data[i]
			}
			out.Data[i] = acc
		}
		return out
	}
	w := 1 / float64(len(grams))
	for i := 0; i < n*n; i++ {
		acc := 0.0
		for _, g := range grams {
			acc += w * g.Data[i]
		}
		out.Data[i] = acc
	}
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
	sc.data = sc.data[:0]
	for _, g := range c.partitionBlocks(p, sc) {
		sc.data = append(sc.data, g.Data)
	}
	return CenteredAlignment(sc.data, 1/float64(len(sc.data)), y, as)
}
