// The block store behind every per-block cache: the exact float64 Grams
// (BlockGramCache), the float32 Grams (engine.Dense32), the low-rank
// factors (ApproxGramCache) and the column blocks feeding all three keep
// their values in a BlockStore and reach a candidate's blocks through one
// partition scan.
package kernel

import (
	"strconv"
	"sync"
	"unsafe"

	"repro/internal/partition"
)

// DefaultGramCacheBlocks bounds how many distinct feature blocks a block
// cache retains before it evicts its oldest entries. An exhaustive cone
// over a free block of m features touches 2^m - 1 distinct blocks, so the
// default comfortably covers m <= 10 while keeping worst-case memory at
// DefaultGramCacheBlocks × n² floats.
const DefaultGramCacheBlocks = 1024

// BlockStore keeps one value per feature block — a block Gram, a low-rank
// factor or a column block — for one fixed dataset. It is safe for
// concurrent use: a parallel search shares one store across all worker
// evaluators, so a block built by any worker serves every sibling
// candidate that contains it.
//
// A missing block is built outside the lock by the store's build routine.
// Two workers racing on a cold block both build it; the routine is
// deterministic, so both results are identical and the first store wins.
// Once the store holds more than its limit of blocks it evicts the oldest
// (FIFO), always keeping the newest. Eviction drops only the store's own
// reference: values already handed out stay valid, and a re-request
// rebuilds the block bit-identically. Stored values are shared read-only.
type BlockStore[V any, T float32 | float64] struct {
	build func(feats []int) (V, error)
	data  func(V) []T
	limit int

	mu    sync.RWMutex
	m     map[string]V
	order []string // keys of m in insertion order, for FIFO eviction
	bytes int64
}

// NewBlockStore returns an empty store whose missing blocks come from
// build, called with a private copy of the block's sorted 0-based
// features. data exposes a value's entries, for assembly and for Bytes.
// limit bounds the number of retained blocks: 0 selects
// DefaultGramCacheBlocks, negative values disable retention (every block
// is rebuilt — useful only for measuring the cache's win).
func NewBlockStore[V any, T float32 | float64](limit int, build func(feats []int) (V, error), data func(V) []T) *BlockStore[V, T] {
	if limit == 0 {
		limit = DefaultGramCacheBlocks
	}
	return &BlockStore[V, T]{build: build, data: data, limit: limit, m: map[string]V{}}
}

// Len reports how many blocks are currently stored.
func (s *BlockStore[V, T]) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.m)
}

// Bytes reports the total size of the stored values' entries in bytes.
func (s *BlockStore[V, T]) Bytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.bytes
}

// Block returns the value of the block on the given sorted 0-based feature
// indices, building and storing it on first use. It allocates the block's
// key; Partition is the allocation-free path.
func (s *BlockStore[V, T]) Block(feats []int) (V, error) {
	return s.get(blockKey(feats), feats)
}

// get is Block keyed by a caller-owned byte fingerprint: the lookup
// converts key with the compiler's no-alloc map[string] byte-slice lookup,
// so a hit allocates nothing; the key string is materialized only when a
// newly built block is stored.
func (s *BlockStore[V, T]) get(key []byte, feats []int) (V, error) {
	s.mu.RLock()
	v, ok := s.m[string(key)]
	s.mu.RUnlock()
	if ok {
		return v, nil
	}
	// feats may be a caller-reused scratch buffer and builders may retain
	// their feature slice, so the (cold) build works on a private copy.
	v, err := s.build(append([]int(nil), feats...))
	if err != nil {
		return v, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, ok := s.m[string(key)]; ok {
		return prev, nil
	}
	if s.limit > 0 {
		ks := string(key)
		s.m[ks] = v
		s.order = append(s.order, ks)
		s.bytes += s.size(v)
		for len(s.m) > s.limit {
			old := s.order[0]
			s.order = s.order[1:]
			s.bytes -= s.size(s.m[old])
			delete(s.m, old)
		}
	}
	return v, nil
}

// size is the byte size of v's entries.
func (s *BlockStore[V, T]) size(v V) int64 {
	var zero T
	return int64(len(s.data(v))) * int64(unsafe.Sizeof(zero))
}

// Partition gathers the value of every block of p into sc, in
// partition.Blocks() order (block index ascending, features ascending),
// building missing blocks, and returns their entries. Once every block of
// p is stored it allocates nothing: the scan refills sc's feature list and
// byte key in place.
//
//iotml:hotpath
func (s *BlockStore[V, T]) Partition(p partition.Partition, sc *BlockScratch[V, T]) ([][]T, error) {
	sc.vals = sc.vals[:0]
	sc.data = sc.data[:0]
	for b := 0; b < p.NumBlocks(); b++ {
		sc.scan(p, b)
		v, err := s.get(sc.key, sc.feats)
		if err != nil {
			return nil, err
		}
		sc.vals = append(sc.vals, v)
		sc.data = append(sc.data, s.data(v))
	}
	return sc.data, nil
}

// BlockScratch holds the reusable per-caller buffers of a partition
// assembly: the scanned block's features and key, and the gathered block
// values and their entries. The zero value is ready; a scratch belongs to
// one goroutine — each worker evaluator of a parallel search owns its own
// while sharing the concurrency-safe store.
type BlockScratch[V any, T float32 | float64] struct {
	blockScan
	vals []V
	data [][]T
}

// blockScan is the feature list and canonical byte key of one block.
type blockScan struct {
	feats []int
	key   []byte
}

// scan loads block b of p: its 0-based features, re-derived by an RGS
// scan, and their key.
//
//iotml:hotpath
func (s *blockScan) scan(p partition.Partition, b int) {
	s.feats = s.feats[:0]
	for e := 1; e <= p.N(); e++ {
		if p.BlockOf(e) == b {
			s.feats = append(s.feats, e-1)
		}
	}
	s.setKey()
}

// setKey fingerprints the block by its sorted 0-based feature indices.
// Blocks from a partition are already sorted, so the key is canonical
// without re-sorting.
//
//iotml:hotpath
func (s *blockScan) setKey() {
	s.key = s.key[:0]
	for i, f := range s.feats {
		if i > 0 {
			s.key = append(s.key, ',')
		}
		s.key = strconv.AppendInt(s.key, int64(f), 10)
	}
}

// blockKey returns the canonical key of the sorted 0-based features.
func blockKey(feats []int) []byte {
	s := blockScan{feats: feats}
	s.setKey()
	return s.key
}

// CombineBlocks writes into out the per-entry combination of the
// equal-length blocks, in block order: the weighted sum with weight
// 1/len(blocks), or the product. Each entry accumulates in float64 and
// rounds once at the store, so the float64 instantiation reproduces
// Gram(FromPartition(p, factory, combiner), x) bit for bit, and the float32
// one differs from it only by that final rounding.
//
//iotml:hotpath
func CombineBlocks[T float32 | float64](out []T, blocks [][]T, combiner Combiner) {
	if combiner == CombineProduct {
		for i := range out {
			acc := 1.0
			for _, g := range blocks {
				acc *= float64(g[i])
			}
			out[i] = T(acc)
		}
		return
	}
	w := 1 / float64(len(blocks))
	for i := range out {
		acc := 0.0
		for _, g := range blocks {
			acc += w * float64(g[i])
		}
		out[i] = T(acc)
	}
}
