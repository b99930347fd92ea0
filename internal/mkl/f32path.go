// The Float32 backend's scoring path: candidate Grams are assembled from
// the shared f32 block cache (engine.Dense32), ridge CV runs entirely on
// f32 storage with f64 accumulation, centred alignment reads the cached
// f32 blocks directly (kernel.CenteredAlignment) without assembling, and
// learners without a native f32 loop (SVM, perceptron) widen the
// assembled Gram once and reuse the standard f64 CV machinery — so only
// assembly pays the f32 rounding there.
//
// Contracts (asserted by the backend-parameterized equivalence suites):
//
//   - Tolerance: assembled Gram entries are within engine.Tol32 of the
//     Float64 reference elementwise; alignment scores within 5e-4 and CV
//     accuracies within 0.05 follow from it on the test workloads.
//   - Determinism: scores are bit-identical across worker counts — each
//     block Gram comes from one deterministic routine whichever worker
//     computes it first, assembly accumulates in partition-block order,
//     and the fold plan is shared read-only.
package mkl

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/kernel"
	"repro/internal/kernelmachine"
	"repro/internal/partition"
	"repro/internal/stats"
)

// scoreF32 is the cache-miss scoring body of the Float32 backend.
func (e *Evaluator) scoreF32(p partition.Partition) (float64, error) {
	if e.cfg.Objective == KernelAlignment {
		if e.cfg.Combiner == kernel.CombineSum {
			return e.d32.AlignmentForPartitionScratch(p, e.data.Y, &e.sc32, &e.align), nil
		}
		e.g32 = e.d32.GramForPartitionScratch(p, e.cfg.Combiner, e.g32, &e.sc32)
		return kernel.CenteredAlignment([][]float32{e.g32.Data}, 1, e.data.Y, &e.align), nil
	}
	e.g32 = e.d32.GramForPartitionScratch(p, e.cfg.Combiner, e.g32, &e.sc32)
	if r, ok := e.cfg.Trainer.(kernelmachine.Ridge); ok {
		return e.cvAccuracyF32(r)
	}
	// No native f32 training loop (SVM's SMO, perceptron): widen the f32
	// Gram once and run the standard f64 CV fast path on it.
	e.gramBuf = engine.Widen(e.gramBuf, e.g32)
	return e.cvAccuracy(e.gramBuf)
}

// cvAccuracyF32 runs the evaluator's k-fold CV with the f32 ridge
// factor/solve: fold sub- and cross-Grams are gathered in f32 through the
// shared fold plan's run descriptors, the regularized system is solved by
// engine.Solver32 under the same λ·n/10 → 1+λ·n schedule as the f64
// trainer, and scores re-enter float64 at the scores-into step so
// classification and accuracy are shared with every other backend.
func (e *Evaluator) cvAccuracyF32(ridge kernelmachine.Ridge) (float64, error) {
	lam := ridge.Lambda
	if lam <= 0 {
		lam = 1e-2
	}
	fd := e.folds
	total := 0.0
	for f := range fd.plan.Trains {
		e.sub32 = engine.Gather32(e.sub32, e.g32, fd.plan.Trains[f], fd.plan.TrainRuns[f])
		beta, err := e.solver32.RidgeSolve(e.sub32, fd.yTrain[f], lam)
		if err != nil {
			return 0, fmt.Errorf("mkl: fold %d: %w", f, err)
		}
		e.cross32 = engine.Gather32(e.cross32, e.g32, fd.plan.Tests[f], fd.plan.TrainRuns[f])
		e.scoreBuf = engine.Scores32Into(e.scoreBuf, e.cross32, beta)
		e.predBuf = kernelmachine.ClassifyInto(e.predBuf, e.scoreBuf)
		total += stats.Accuracy(e.predBuf, fd.yTest[f])
	}
	return total / float64(len(fd.plan.Trains)), nil
}
