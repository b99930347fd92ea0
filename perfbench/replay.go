package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/dataset"
	"repro/internal/engine"
	"repro/internal/kernel"
	"repro/internal/kernelmachine"
	"repro/internal/linalg"
	"repro/internal/partition"
	"repro/internal/stats"
)

// replayStats are isolated-layer costs: the benchmark calls each layer's
// functions directly, one after another on one goroutine, on exactly the
// candidates a search visited. They are never summed into end-to-end
// figures.
type replayStats struct {
	blockBuild  time.Duration
	blocksBuilt int
	blockHits   int
	cacheBytes  int64
	assemble    time.Duration
	center      time.Duration
	align       time.Duration
	train       time.Duration // ridge training of the CV folds
	foldOther   time.Duration // fold gathers, scoring and accuracy
	candidates  int
	matches     int // replayed scores bit-identical to the search's
}

func (r replayStats) total() time.Duration {
	return r.blockBuild + r.assemble + r.center + r.align + r.train + r.foldOther
}

// blockFeatures returns the 0-based feature lists of p's blocks in
// partition order.
func blockFeatures(p partition.Partition) [][]int {
	blocks := p.Blocks()
	for _, b := range blocks {
		for i := range b {
			b[i]--
		}
	}
	return blocks
}

// replayKernel replays the f64 candidate scoring of a default-options
// search (RBF γ=1 blocks, sum combiner) through kernel.BlockGramCache,
// then scores each candidate by centred alignment or by 4-fold CV with
// kernelmachine.Ridge, as the evaluator does.
func replayKernel(d *dataset.Dataset, cands []candidate, alignment bool) replayStats {
	var st replayStats
	cache := kernel.NewBlockGramCache(d.X, kernel.RBFFactory(1.0), 0)
	var (
		asm          kernel.AssemblyScratch
		gram, center *linalg.Matrix
		sub, cross   *linalg.Matrix
		km           kernelmachine.Scratch
		scores       []float64
		pred         []int
	)
	plan := stats.NewFoldPlan(d.N(), 4, stats.NewRNG(17))
	yTrain, yTest := stats.GatherLabels(d.Y, plan.Trains), stats.GatherLabels(d.Y, plan.Tests)
	ridge := kernelmachine.Ridge{Lambda: 1e-2}
	for _, c := range cands {
		for _, feats := range blockFeatures(c.p) {
			before := cache.Len()
			t0 := time.Now()
			cache.BlockGram(feats)
			if dt := time.Since(t0); cache.Len() != before {
				st.blockBuild += dt
				st.blocksBuilt++
			} else {
				st.blockHits++
			}
		}
		t0 := time.Now()
		gram = cache.GramForPartitionScratch(c.p, kernel.CombineSum, gram, &asm)
		st.assemble += time.Since(t0)
		var score float64
		if alignment {
			t0 = time.Now()
			center = linalg.Reshape(center, gram.Rows, gram.Cols)
			copy(center.Data, gram.Data)
			kernel.Center(center)
			t1 := time.Now()
			score = kernel.Alignment(center, d.Y)
			st.center += t1.Sub(t0)
			st.align += time.Since(t1)
		} else {
			total := 0.0
			for f := range plan.Trains {
				t0 := time.Now()
				sub = linalg.GatherInto(sub, gram, plan.Trains[f], plan.TrainRuns[f])
				t1 := time.Now()
				m, err := ridge.TrainScratch(sub, yTrain[f], &km)
				t2 := time.Now()
				st.train += t2.Sub(t1)
				if err != nil {
					score = math.NaN()
					break
				}
				cross = linalg.GatherInto(cross, gram, plan.Tests[f], plan.TrainRuns[f])
				scores = m.(kernelmachine.ScratchModel).ScoresInto(scores, cross)
				pred = kernelmachine.ClassifyInto(pred, scores)
				total += stats.Accuracy(pred, yTest[f])
				st.foldOther += t1.Sub(t0) + time.Since(t2)
			}
			if !math.IsNaN(score) {
				score = total / float64(len(plan.Trains))
			}
		}
		st.candidates++
		if math.Float64bits(score) == math.Float64bits(c.score) {
			st.matches++
		}
	}
	st.cacheBytes = cache.Bytes()
	return st
}

// replayEngine replays the f32 alignment scoring of the engine backend
// through engine.Dense32, engine.Center32 and engine.Alignment32.
func replayEngine(d *dataset.Dataset, cands []candidate) replayStats {
	var st replayStats
	d32 := engine.NewDense32(d.X, kernel.RBFFactory(1.0), 0)
	var (
		sc           engine.Scratch32
		gram, center *engine.M32
	)
	built := map[string]bool{}
	for _, c := range cands {
		for _, feats := range blockFeatures(c.p) {
			key := fmt.Sprint(feats)
			t0 := time.Now()
			d32.BlockGram(feats)
			if dt := time.Since(t0); !built[key] {
				built[key] = true
				st.blockBuild += dt
				st.blocksBuilt++
			} else {
				st.blockHits++
			}
		}
		t0 := time.Now()
		gram = d32.GramForPartitionScratch(c.p, kernel.CombineSum, gram, &sc)
		t1 := time.Now()
		center = engine.Reshape32(center, gram.Rows, gram.Cols)
		copy(center.Data, gram.Data)
		engine.Center32(center)
		t2 := time.Now()
		score := engine.Alignment32(center, d.Y)
		st.assemble += t1.Sub(t0)
		st.center += t2.Sub(t1)
		st.align += time.Since(t2)
		st.candidates++
		if math.Float64bits(score) == math.Float64bits(c.score) {
			st.matches++
		}
	}
	// Dense32 exposes no size accessor; every retained block is one n×n
	// float32 matrix.
	st.cacheBytes = int64(len(built)) * int64(d.N()) * int64(d.N()) * 4
	return st
}
