package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"repro/internal/model"
	"repro/internal/serve"
)

// gateLog counts checked operations and the ones whose output was wrong.
type gateLog struct {
	attempted, failed int
	msgs              []string
}

// check counts one operation, failed when err is non-nil.
func (g *gateLog) check(err error) {
	g.attempted++
	if err != nil {
		g.failed++
		if len(g.msgs) < 8 {
			g.msgs = append(g.msgs, err.Error())
		}
	}
}

// selection is what a fit selected: the partition key and its score.
type selection struct {
	best  string
	score float64
}

// gateSelection fails unless got selected exactly the reference's
// partition with a bit-identical score.
func gateSelection(got, ref selection) error {
	if got.best != ref.best || math.Float64bits(got.score) != math.Float64bits(ref.score) {
		return fmt.Errorf("selection %s (score %v) differs from reference %s (score %v)", got.best, got.score, ref.best, ref.score)
	}
	return nil
}

// gateArtifact fails unless the artifact bytes Load and score every row to
// a finite value; it returns the loaded artifact and the scores.
func gateArtifact(art []byte, rows [][]float64) (*model.Artifact, []float64, error) {
	a, err := model.Load(bytes.NewReader(art))
	if err != nil {
		return nil, nil, fmt.Errorf("artifact does not load: %w", err)
	}
	p, err := model.NewPredictor(a)
	if err != nil {
		return nil, nil, fmt.Errorf("artifact has no predictor: %w", err)
	}
	scores, err := p.ScoresInto(nil, rows)
	if err != nil {
		return nil, nil, fmt.Errorf("artifact does not score its training rows: %w", err)
	}
	if !finite(scores) {
		return nil, nil, errors.New("artifact scores a training row to a non-finite value")
	}
	return a, scores, nil
}

// expected is the offline answer to one predict body: the response bytes
// the server should send and the decoded scores/labels they encode.
type expected struct {
	body   []byte
	scores []float64
	labels []int
}

// expect scores rows offline with p and renders the response the server
// must send for them.
func expect(p *model.Predictor, rows [][]float64) (expected, error) {
	scores, err := p.ScoresInto(nil, rows)
	if err != nil {
		return expected{}, err
	}
	var b bytes.Buffer
	resp := serve.PredictResponse{Scores: scores, Labels: model.Labels(scores)}
	if err := json.NewEncoder(&b).Encode(resp); err != nil {
		return expected{}, err
	}
	return expected{body: b.Bytes(), scores: resp.Scores, labels: resp.Labels}, nil
}

// gateResponse fails unless a predict answer is a 200 whose scores and
// labels bit-match the offline output of one of the generations.
func gateResponse(status int, body []byte, gens ...expected) error {
	if status != 200 {
		return fmt.Errorf("predict answered %d: %.120s", status, body)
	}
	for _, g := range gens {
		if bytes.Equal(body, g.body) {
			return nil
		}
	}
	var got serve.PredictResponse
	if err := json.Unmarshal(body, &got); err != nil {
		return fmt.Errorf("predict response does not decode: %w", err)
	}
	for _, g := range gens {
		if sameBits(got.Scores, g.scores) && sameInts(got.Labels, g.labels) {
			return nil
		}
	}
	return fmt.Errorf("predict response matches no generation: %.120s", body)
}

func sameBits(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// gateSelfCheck feeds every gate a deliberately wrong expectation built
// from a real output of this run, and fails if any gate accepts it: a gate
// that cannot fail would let every run read correct.
func gateSelfCheck(sel selection, art []byte, rows [][]float64, exp expected) error {
	var errs []error
	wrong := sel
	wrong.score = math.Nextafter(sel.score, math.Inf(1))
	if gateSelection(sel, wrong) == nil {
		errs = append(errs, errors.New("selection gate accepted a score one ulp off"))
	}
	wrong = sel
	wrong.best = sel.best + "|x"
	if gateSelection(sel, wrong) == nil {
		errs = append(errs, errors.New("selection gate accepted another partition"))
	}
	if _, _, err := gateArtifact(art[:len(art)/2], rows); err == nil {
		errs = append(errs, errors.New("artifact gate accepted truncated bytes"))
	}
	if bad, err := nonFiniteArtifact(art); err != nil {
		errs = append(errs, err)
	} else if _, _, err := gateArtifact(bad, rows); err == nil {
		errs = append(errs, errors.New("artifact gate accepted non-finite scores"))
	}
	if exp.body != nil {
		flipped := exp
		flipped.scores = append([]float64(nil), exp.scores...)
		flipped.scores[0] = math.Float64frombits(math.Float64bits(exp.scores[0]) ^ 1)
		flipped.body = nil
		if gateResponse(200, exp.body, flipped) == nil {
			errs = append(errs, errors.New("predict gate accepted a score one bit off"))
		}
		if gateResponse(503, exp.body, exp) == nil {
			errs = append(errs, errors.New("predict gate accepted a non-200 answer"))
		}
	}
	return errors.Join(errs...)
}

// nonFiniteArtifact returns a copy of the artifact whose first dual
// coefficient is +Inf, so every score it gives is non-finite.
func nonFiniteArtifact(art []byte) ([]byte, error) {
	a, err := model.Load(bytes.NewReader(art))
	if err != nil {
		return nil, fmt.Errorf("self-check: %w", err)
	}
	for i := range a.Coeff {
		a.Coeff[i] = math.Inf(1)
	}
	var b bytes.Buffer
	if err := a.Save(&b); err != nil {
		// An artifact format that refuses non-finite coefficients makes the
		// corrupted copy unloadable, which the gate must reject as well.
		return art[:1], nil
	}
	return b.Bytes(), nil
}
