package kernel

import (
	"errors"
	"sync"
	"testing"

	"repro/internal/partition"
)

// countingStore returns a store whose blocks are n-entry vectors filled
// with the block's first feature, and a counter of builds.
func countingStore(limit, n int) (*BlockStore[[]float32, float32], *int) {
	var mu sync.Mutex
	builds := 0
	s := NewBlockStore(limit, func(feats []int) ([]float32, error) {
		mu.Lock()
		builds++
		mu.Unlock()
		v := make([]float32, n)
		for i := range v {
			v[i] = float32(feats[0])
		}
		return v, nil
	}, func(v []float32) []float32 { return v })
	return s, &builds
}

// The store evicts oldest-first once past its limit, keeps the newest
// block, and accounts bytes by the entry type's size.
func TestBlockStoreFIFOAndBytes(t *testing.T) {
	s, builds := countingStore(2, 10)
	for f := 0; f < 5; f++ {
		s.Block([]int{f})
	}
	if s.Len() != 2 || s.Bytes() != 2*10*4 {
		t.Fatalf("Len %d Bytes %d, want 2 blocks of 40 bytes", s.Len(), s.Bytes())
	}
	s.Block([]int{4}) // newest: a hit
	s.Block([]int{3}) // second newest: a hit
	if *builds != 5 {
		t.Fatalf("%d builds, want 5 (the two newest blocks retained)", *builds)
	}
	s.Block([]int{0}) // evicted: rebuilt
	if *builds != 6 {
		t.Fatalf("%d builds, want 6 (the oldest blocks evicted)", *builds)
	}

	none, builds := countingStore(-1, 10)
	none.Block([]int{0})
	none.Block([]int{0})
	if none.Len() != 0 || none.Bytes() != 0 || *builds != 2 {
		t.Fatalf("negative limit: Len %d Bytes %d builds %d, want 0 0 2", none.Len(), none.Bytes(), *builds)
	}
}

// Workers racing on a cold block may each build it, but every caller gets
// the value stored first.
func TestBlockStoreFirstStoreWins(t *testing.T) {
	s, _ := countingStore(0, 4)
	const workers = 8
	got := make([][]float32, workers)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[w], _ = s.Block([]int{1, 2})
		}()
	}
	wg.Wait()
	stored, _ := s.Block([]int{1, 2})
	for w, v := range got {
		if &v[0] != &stored[0] {
			t.Fatalf("worker %d got a value other than the stored one", w)
		}
	}
	if s.Len() != 1 {
		t.Fatalf("Len %d, want 1", s.Len())
	}
}

// A failed build is returned and not stored; Partition stops at it.
func TestBlockStoreBuildErrorNotStored(t *testing.T) {
	boom := errors.New("boom")
	s := NewBlockStore(0, func(feats []int) ([]float64, error) {
		if feats[0] == 1 {
			return nil, boom
		}
		return []float64{1}, nil
	}, func(v []float64) []float64 { return v })
	var sc BlockScratch[[]float64, float64]
	if _, err := s.Partition(partition.Finest(3), &sc); !errors.Is(err, boom) {
		t.Fatalf("Partition error %v, want %v", err, boom)
	}
	if s.Len() != 1 {
		t.Fatalf("Len %d, want 1 (only the block before the failure)", s.Len())
	}
}
