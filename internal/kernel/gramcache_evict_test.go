package kernel_test

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/engine"
	"repro/internal/kernel"
	"repro/internal/partition"
)

func randomRows(n, d int, seed int64) [][]float64 {
	rng := rand.New(rand.NewSource(seed))
	x := make([][]float64, n)
	for i := range x {
		x[i] = make([]float64, d)
		for j := range x[i] {
			x[i][j] = rng.NormFloat64()
		}
	}
	return x
}

func bits64(v []float64) []uint64 {
	out := make([]uint64, len(v))
	for i, f := range v {
		out[i] = math.Float64bits(f)
	}
	return out
}

func bits32(v []float32) []uint64 {
	out := make([]uint64, len(v))
	for i, f := range v {
		out[i] = uint64(math.Float32bits(f))
	}
	return out
}

// evictCase adapts one block cache to the eviction contract: block returns
// a block's shared value and the bit patterns of its entries, assemble the
// bit patterns of a candidate's assembled Gram (or factor).
type evictCase struct {
	block    func(feats []int) (any, []uint64)
	assemble func(p partition.Partition) []uint64
	len      func() int
}

// approxCase opens a factor cache of the given kind as an evictCase.
func approxCase(t *testing.T, x [][]float64, factory kernel.BlockKernelFactory, kind kernel.ApproxKind) func(limit int) evictCase {
	return func(limit int) evictCase {
		c := kernel.NewApproxGramCache(x, factory, kind, 6, 3, limit)
		return evictCase{
			block: func(f []int) (any, []uint64) {
				m, err := c.BlockFactor(f)
				if err != nil {
					t.Fatal(err)
				}
				return m, bits64(m.Data)
			},
			assemble: func(p partition.Partition) []uint64 {
				m, err := c.FactorForPartition(p, kernel.CombineSum, nil)
				if err != nil {
					t.Fatal(err)
				}
				return bits64(m.Data)
			},
			len: c.Len,
		}
	}
}

// Eviction must never change the bytes of an assembled Gram or factor: for
// every block cache, a cache that evicts constantly (limit 2) or retains
// nothing (limit −1) assembles bit-identical matrices to an unbounded one
// for every candidate, including candidates whose blocks were evicted and
// rebuilt. The bounded caches hold at most limit blocks, keep the newest
// one, and rebuild an evicted block bit-identically.
func TestBlockGramCacheEvictionBitIdentical(t *testing.T) {
	x := randomRows(14, 6, 10)
	factory := kernel.RBFFactory(1.0)
	caches := []struct {
		name string
		open func(limit int) evictCase
	}{
		{"f64", func(limit int) evictCase {
			c := kernel.NewBlockGramCache(x, factory, limit)
			return evictCase{
				block: func(f []int) (any, []uint64) { g := c.BlockGram(f); return g, bits64(g.Data) },
				assemble: func(p partition.Partition) []uint64 {
					return bits64(c.GramForPartition(p, kernel.CombineSum, nil).Data)
				},
				len: c.Len,
			}
		}},
		{"f32", func(limit int) evictCase {
			c := engine.NewDense32(x, factory, limit)
			var sc engine.Scratch32
			return evictCase{
				block: func(f []int) (any, []uint64) { g := c.BlockGram(f); return g, bits32(g.Data) },
				assemble: func(p partition.Partition) []uint64 {
					return bits32(c.GramForPartitionScratch(p, kernel.CombineSum, nil, &sc).Data)
				},
				len: c.Len,
			}
		}},
		{"nystrom", approxCase(t, x, factory, kernel.ApproxNystrom)},
		{"rff", approxCase(t, x, factory, kernel.ApproxRFF)},
	}
	parts := partition.All(6)[:40]
	for _, cc := range caches {
		for _, limit := range []int{2, -1} {
			t.Run(fmt.Sprintf("%s/limit=%d", cc.name, limit), func(t *testing.T) {
				unbounded, tight := cc.open(0), cc.open(limit)
				retained := max(limit, 0)
				for pass := 0; pass < 2; pass++ { // the second pass re-touches evicted blocks
					for _, p := range parts {
						if want, got := unbounded.assemble(p), tight.assemble(p); !slices.Equal(got, want) {
							t.Fatalf("pass %d partition %v: assembly differs bitwise from the unbounded cache", pass, p)
						}
						if n := tight.len(); n > retained {
							t.Fatalf("pass %d partition %v: cache holds %d blocks, limit %d", pass, p, n, limit)
						}
					}
				}

				first, firstBits := tight.block([]int{0})
				for f := 1; f < 3; f++ {
					tight.block([]int{f})
				}
				newest, _ := tight.block([]int{3}) // evicts {0} under limit 2
				if again, _ := tight.block([]int{3}); limit > 0 && again != newest {
					t.Fatal("the newest block was not kept")
				}
				rebuilt, rebuiltBits := tight.block([]int{0})
				if rebuilt == first {
					t.Fatal("block {0} is still cached; want it evicted")
				}
				if !slices.Equal(rebuiltBits, firstBits) {
					t.Fatal("rebuilt block differs from the original")
				}
			})
		}
	}
}

// Matrices handed out before an eviction stay valid and unchanged — the
// cache drops only its own reference.
func TestBlockGramCacheEvictionKeepsHandedOutBlocks(t *testing.T) {
	x := randomRows(9, 4, 11)
	cache := kernel.NewBlockGramCache(x, kernel.RBFFactory(1.0), 1)
	g0 := cache.BlockGram([]int{0})
	snap := append([]float64(nil), g0.Data...)
	for f := 1; f < 4; f++ {
		cache.BlockGram([]int{f}) // evicts {0}
	}
	for i := range snap {
		if g0.Data[i] != snap[i] {
			t.Fatal("evicted block matrix was mutated")
		}
	}
	// Re-requesting the evicted block recomputes it bit-identically.
	again := cache.BlockGram([]int{0})
	for i := range snap {
		if again.Data[i] != snap[i] {
			t.Fatal("recomputed block differs from original")
		}
	}
}
