// Package httpjson writes the JSON responses of the repository's HTTP
// servers (the model server in internal/serve and the search worker in
// internal/distsearch). It encodes a value before committing a status, so
// a value that cannot be encoded — a NaN or ±Inf float, say — never goes
// out as a success with an empty body.
package httpjson

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
)

// Write encodes v and, only once that succeeded, sends it as the body of a
// status response with Content-Type application/json. The body is exactly
// what a json.Encoder writes: the encoding plus a trailing newline. On an
// encoding failure nothing is written and the error is returned, so the
// caller can still answer with its own error envelope.
func Write(w http.ResponseWriter, status int, v any) error {
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		return fmt.Errorf("encoding %T: %w", v, err)
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(buf.Bytes()) // the connection is the only failure mode left
	return nil
}
