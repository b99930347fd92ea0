// Predictor: the inference engine over a loaded artifact. It rebuilds the
// kernel from the artifact's spec once, scores through the exact dual form
// the trainers produce (kernelmachine.NewDualModel), and reuses its query
// and cross-Gram scratch across batches, so steady-state inference performs
// one vectorized CrossGram plus one matrix-vector product per batch with no
// per-request allocation growth — the same block machinery the evaluation
// fast path uses (kernel.CrossGramIntoMatrix, ScoresInto).
package model

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/kernel"
	"repro/internal/kernelmachine"
	"repro/internal/linalg"
)

// Predictor scores feature vectors against an artifact. It owns reusable
// scratch buffers and is NOT safe for concurrent use: give each goroutine
// its own Predictor (the serving worker pool does exactly that — see
// internal/serve).
type Predictor struct {
	art   *Artifact
	k     kernel.Kernel
	model kernelmachine.ScratchModel

	// query and cross are the batch scratch: query holds the incoming rows
	// as a dense matrix, cross the batch×NumTrain kernel matrix.
	query *linalg.Matrix
	cross *linalg.Matrix
}

// NewPredictor validates the artifact and rebuilds its kernel and dual
// model.
func NewPredictor(a *Artifact) (*Predictor, error) {
	if err := a.Validate(); err != nil {
		return nil, err
	}
	k, err := a.KernelSpec.FromSpec()
	if err != nil {
		return nil, fmt.Errorf("model: rebuilding kernel: %w", err)
	}
	dm := kernelmachine.NewDualModel(a.Coeff, a.Bias)
	sm, ok := dm.(kernelmachine.ScratchModel)
	if !ok {
		// NewDualModel always returns a ScratchModel today; guard the
		// assumption explicitly rather than panic later.
		return nil, fmt.Errorf("model: dual model %T does not support scratch scoring", dm)
	}
	return &Predictor{art: a, k: k, model: sm}, nil
}

// Artifact returns the artifact this predictor scores against.
func (p *Predictor) Artifact() *Artifact { return p.art }

// Dim returns the feature dimensionality inputs must have.
func (p *Predictor) Dim() int { return p.art.Dim() }

// ValidateRow checks one feature vector against a model input contract:
// exact dimensionality and finite values — the validation API boundaries
// (the serving request decoder, the predict CLI) apply to every incoming
// instance. NaN and ±Inf are rejected: they would propagate silently
// through the kernel arithmetic into every score of the batch.
func ValidateRow(dim int, row []float64) error {
	if len(row) != dim {
		return fmt.Errorf("model: instance has %d features, model wants %d", len(row), dim)
	}
	for j, v := range row {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("model: feature %d is %v; inputs must be finite", j, v)
		}
	}
	return nil
}

// ValidateRow checks one feature vector against this model's input
// contract; see the package-level ValidateRow.
func (p *Predictor) ValidateRow(row []float64) error {
	return ValidateRow(p.art.Dim(), row)
}

// ErrNonFiniteScore reports a batch in which some decision score came out
// NaN or ±Inf — finite inputs can still overflow the kernel arithmetic
// (a high-degree polynomial, say). The whole batch is refused.
var ErrNonFiniteScore = errors.New("model: non-finite decision score")

// ScoresInto scores the given feature rows, writing the decision scores
// into dst (reused when its capacity suffices) and returning it. Rows are
// validated (dimensionality, finite values); the whole batch is rejected on
// the first invalid row, so batches assembled from multiple requests fail
// atomically before any scoring work. A batch with a non-finite score
// returns ErrNonFiniteScore.
func (p *Predictor) ScoresInto(dst []float64, rows [][]float64) ([]float64, error) {
	for i, r := range rows {
		if err := p.ValidateRow(r); err != nil {
			return nil, fmt.Errorf("instance %d: %w", i, err)
		}
	}
	return p.ScoresIntoPrevalidated(dst, rows)
}

// ScoresIntoPrevalidated is ScoresInto without the per-row validation scan
// — for callers that already validated every row at their own boundary
// (the serving request decoder does, per coalesced request, before rows
// reach a scoring worker). Feeding it unvalidated rows is a contract
// violation: a wrong-length row corrupts the batch matrix silently and
// NaN/Inf values propagate into every score of the batch.
//
//iotml:hotpath
func (p *Predictor) ScoresIntoPrevalidated(dst []float64, rows [][]float64) ([]float64, error) {
	if len(rows) == 0 {
		return dst[:0], nil
	}
	d := p.art.Dim()
	p.query = linalg.Reshape(p.query, len(rows), d)
	for i, r := range rows {
		copy(p.query.Data[i*d:(i+1)*d], r)
	}
	var ok bool
	if p.cross, ok = kernel.CrossGramIntoMatrix(p.cross, p.k, p.query, p.art.TrainX); !ok {
		// Scalar fallback for kernels without a block fast path. The spec
		// algebra is fully vectorizable today, so this path only runs if a
		// future spec kind opts out of BlockGramKernel.
		p.cross = linalg.Reshape(p.cross, len(rows), p.art.NumTrain())
		for i := 0; i < len(rows); i++ {
			for j := 0; j < p.art.NumTrain(); j++ {
				p.cross.Set(i, j, p.k.Eval(p.query.Row(i), p.art.TrainX.Row(j)))
			}
		}
	}
	scores := p.model.ScoresInto(dst, p.cross)
	for _, s := range scores {
		if math.IsNaN(s) || math.IsInf(s, 0) {
			return nil, ErrNonFiniteScore
		}
	}
	return scores, nil
}

// Scores is the allocating convenience form of ScoresInto.
func (p *Predictor) Scores(rows [][]float64) ([]float64, error) {
	return p.ScoresInto(nil, rows)
}

// Labels converts decision scores to ±1 labels (score 0 goes to +1),
// re-exported here so API layers need not import kernelmachine.
func Labels(scores []float64) []int { return kernelmachine.Classify(scores) }
