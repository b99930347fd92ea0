package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// stableCodes is the documented set of error-envelope codes.
var stableCodes = map[string]bool{
	CodeInvalidRequest: true, CodeModelNotFound: true, CodeMethodNotAllowed: true,
	CodeQueueFull: true, CodeOverloaded: true, CodeShuttingDown: true,
	CodeInternal: true, CodeEncodeFailed: true,
}

// FuzzPredictBody posts arbitrary bytes to /v1/models/{id}/predict. The
// answer is either a 200 with one finite score and one label per scored
// row, or a JSON error envelope carrying a stable code — never a panic and
// never an empty body.
func FuzzPredictBody(f *testing.F) {
	s, _, art := newTestServer(f, WithImmediateFlush())
	h := s.Handler()

	smoke, err := filepath.Glob(filepath.Join("..", "..", "testdata", "serve-smoke", "request*.json"))
	if err != nil || len(smoke) == 0 {
		f.Fatalf("serve-smoke requests: %v (found %d)", err, len(smoke))
	}
	for _, name := range smoke {
		b, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
		f.Add(b[:len(b)/2]) // truncated
	}
	row := strings.TrimSuffix(strings.Repeat("0.5,", art.Dim()), ",")
	for _, seed := range []string{
		``,
		`null`,
		`{"instance": [` + row + `]}`,
		`{"instances": [[` + row + `], [` + row + `]]}`,
		`{"instance": [` + row + `], "extra": 1}`,
		`{"instance": [` + row + `, 0.5]}`,
		`{"instance": [1e400` + strings.Repeat(",0", art.Dim()-1) + `]}`,
		`{"instances": []}`,
		`{"instance": [` + row,
	} {
		f.Add([]byte(seed))
	}

	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodPost, "/v1/models/default/predict", bytes.NewReader(body))
		h.ServeHTTP(rec, req)
		out := rec.Body.Bytes()
		if len(out) == 0 {
			t.Fatalf("status %d with an empty body", rec.Code)
		}
		if rec.Code == http.StatusOK {
			var resp PredictResponse
			if err := json.Unmarshal(out, &resp); err != nil {
				t.Fatalf("200 body is not a prediction: %v: %s", err, out)
			}
			if len(resp.Scores) == 0 || len(resp.Labels) != len(resp.Scores) {
				t.Fatalf("200 with %d scores and %d labels: %s", len(resp.Scores), len(resp.Labels), out)
			}
			for i, v := range resp.Scores {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("score %d is %v", i, v)
				}
			}
			return
		}
		var env errorEnvelope
		if err := json.Unmarshal(out, &env); err != nil {
			t.Fatalf("status %d body is not an error envelope: %v: %s", rec.Code, err, out)
		}
		if !stableCodes[env.Error.Code] {
			t.Fatalf("status %d carries unknown code %q: %s", rec.Code, env.Error.Code, out)
		}
	})
}
