package main

import (
	"context"
	"math"
	"testing"

	"repro/internal/model"
)

// smallFit returns a real fitted artifact and its training rows.
func smallFit(t *testing.T) (fitOutcome, [][]float64) {
	t.Helper()
	in, err := encode("t", biometric(48, 5))
	if err != nil {
		t.Fatal(err)
	}
	out, err := fitOnce(context.Background(), in, nil, false, nil, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	d, err := parse(in)
	if err != nil {
		t.Fatal(err)
	}
	return out, d.X
}

func TestGatesAcceptRightOutputs(t *testing.T) {
	out, rows := smallFit(t)
	sel := selection{out.best, out.score}
	if err := gateSelection(sel, sel); err != nil {
		t.Fatal(err)
	}
	art, scores, err := gateArtifact(out.art, rows)
	if err != nil {
		t.Fatal(err)
	}
	p, err := model.NewPredictor(art)
	if err != nil {
		t.Fatal(err)
	}
	exp, err := expect(p, rows[:3])
	if err != nil {
		t.Fatal(err)
	}
	if err := gateResponse(200, exp.body, exp); err != nil {
		t.Fatal(err)
	}
	// Same values, other formatting: the bit comparison still accepts it.
	if err := gateResponse(200, append([]byte(" "), exp.body...), exp); err != nil {
		t.Fatal(err)
	}
	if _, err := predictProbe(art, rows, scores, 1); err != nil {
		t.Fatal(err)
	}
}

// Every gate must fail loudly when fed a deliberately wrong expectation.
func TestGateSelfCheckCatchesWrongExpectations(t *testing.T) {
	out, rows := smallFit(t)
	art, scores, err := gateArtifact(out.art, rows)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := model.NewPredictor(art)
	exp, _ := expect(p, rows[:2])
	if err := gateSelfCheck(selection{out.best, out.score}, out.art, rows, exp); err != nil {
		t.Fatalf("a gate accepted a wrong expectation: %v", err)
	}
	wrong := selection{out.best, math.Nextafter(out.score, 0)}
	if gateSelection(selection{out.best, out.score}, wrong) == nil {
		t.Error("fit gate accepted a reference score one ulp off")
	}
	other := exp
	other.body, other.scores = nil, append([]float64(nil), exp.scores...)
	other.scores[1] = -other.scores[1]
	if gateResponse(200, exp.body, other) == nil {
		t.Error("predict gate accepted a response matching no generation")
	}
	bad := append([]float64(nil), scores...)
	bad[0] = math.Nextafter(bad[0], math.Inf(1))
	if _, err := predictProbe(art, rows, bad, 1); err == nil {
		t.Error("probe accepted a 1-row score that differs from the batch score")
	}
}
