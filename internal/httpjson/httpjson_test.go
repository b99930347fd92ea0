package httpjson

import (
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
)

func TestWriteSendsEncoderBytes(t *testing.T) {
	rec := httptest.NewRecorder()
	if err := Write(rec, http.StatusCreated, map[string]any{"scores": []float64{1.5, -2}}); err != nil {
		t.Fatal(err)
	}
	if rec.Code != http.StatusCreated {
		t.Fatalf("status %d, want %d", rec.Code, http.StatusCreated)
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	if got, want := rec.Body.String(), "{\"scores\":[1.5,-2]}\n"; got != want {
		t.Fatalf("body %q, want %q", got, want)
	}
}

func TestWriteUnencodableValueWritesNothing(t *testing.T) {
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		rec := httptest.NewRecorder()
		if err := Write(rec, http.StatusCreated, []float64{0, v}); err == nil {
			t.Fatalf("%v: encoding succeeded, want an error", v)
		}
		// The recorder's Code stays at its default unless WriteHeader ran.
		if rec.Code != http.StatusOK || rec.Body.Len() != 0 || len(rec.Header()) != 0 {
			t.Fatalf("%v: wrote a response (code %d, headers %v, body %q)", v, rec.Code, rec.Header(), rec.Body.String())
		}
	}
}
