package serve

import (
	"context"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/kernel"
	"repro/internal/model"
)

// TestPredictNonFiniteScoreIs500: the golden artifact's training rows under
// a polynomial kernel of degree 400 (γ=50, coef0=10) overflow to non-finite
// scores. The artifact is valid, so it registers; predicting must answer a
// 500 error envelope — not 200 with an empty body — and count an error in
// /v1/metrics, not a success.
func TestPredictNonFiniteScoreIs500(t *testing.T) {
	f, err := os.Open(filepath.Join("..", "model", "testdata", "golden-ridge-linear.iotml"))
	if err != nil {
		t.Fatal(err)
	}
	art, err := model.Load(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	art.KernelSpec = &kernel.Spec{Kind: kernel.SpecPolynomial, Degree: 400, Gamma: 50, Coef0: 10}
	reg := NewRegistry()
	if err := reg.Load("m", art); err != nil {
		t.Fatal(err)
	}
	s, err := New(context.Background(), reg, WithImmediateFlush())
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(s.Handler())
	t.Cleanup(func() { hs.Close(); s.Close() })

	rows := make([][]float64, art.NumTrain())
	for i := range rows {
		rows[i] = append([]float64(nil), art.TrainX.Row(i)...)
	}
	resp, body := postJSON(t, hs.URL+"/v1/models/m/predict", PredictRequest{Instances: rows})
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500: %q", resp.StatusCode, body)
	}
	if e := decodeError(t, body); e.Code != CodeInternal || !strings.Contains(e.Message, "non-finite") {
		t.Fatalf("envelope %+v, want code %q naming the non-finite score", e, CodeInternal)
	}
	m, _ := s.SnapshotModel("m")
	if m.Errors != 1 || m.Requests != 0 {
		t.Fatalf("errors=%d requests=%d, want 1 and 0", m.Errors, m.Requests)
	}
	metrics, err := http.Get(hs.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	exposition, err := io.ReadAll(metrics.Body)
	metrics.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(exposition), `iotml_errors_total{model="m"} 1`) {
		t.Fatalf("/v1/metrics does not count the error:\n%s", exposition)
	}
}

// TestWriteJSONEncodeFailureIs500: a response value that cannot be encoded
// becomes a 500 CodeEncodeFailed envelope instead of an empty success.
func TestWriteJSONEncodeFailureIs500(t *testing.T) {
	rec := httptest.NewRecorder()
	if writeJSON(rec, http.StatusOK, PredictResponse{Scores: []float64{math.NaN()}, Labels: []int{1}}) {
		t.Fatal("writeJSON reported success for a NaN score")
	}
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500", rec.Code)
	}
	if e := decodeError(t, rec.Body.Bytes()); e.Code != CodeEncodeFailed {
		t.Fatalf("code %q, want %q", e.Code, CodeEncodeFailed)
	}
}
