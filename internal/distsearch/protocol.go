// The coordinator↔worker wire protocol: plain HTTP+JSON, matching the
// serving API's idiom (internal/serve). Three routes:
//
//	POST /v1/job    install a Job (idempotent, keyed by fingerprint)
//	POST /v1/score  score one shard of candidates under an installed job
//	GET  /v1/healthz liveness probe
//
// Candidates travel as their canonical restricted-growth-string keys
// (partition.Key(): "0.1.0.2"), the exact strings the evaluator caches by,
// so encode→decode is lossless by construction. Every score response
// echoes the job fingerprint; the coordinator rejects mismatched echoes as
// corrupt results.
package distsearch

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/partition"
)

// scoreRequest asks a worker to score one shard.
type scoreRequest struct {
	// Fingerprint names the installed job to score under.
	Fingerprint string `json:"fingerprint"`
	// Candidates are the shard's partitions as canonical RGS keys.
	Candidates []string `json:"candidates"`
}

// scoreResponse carries one shard's scores back, echoing the fingerprint
// of the job that produced them.
type scoreResponse struct {
	Fingerprint string    `json:"fingerprint"`
	Scores      []float64 `json:"scores"`
}

// errorResponse is the JSON body of a non-200 worker reply.
type errorResponse struct {
	// Code is a stable machine-readable discriminator; see errCode*.
	Code  string `json:"code"`
	Error string `json:"error"`
}

const (
	// errCodeUnknownJob marks a score request naming a fingerprint the
	// worker does not hold (e.g. the worker restarted since install); the
	// coordinator reacts by re-installing the job and retrying.
	errCodeUnknownJob = "unknown-job"
	// errCodeBadRequest marks an undecodable or invalid request.
	errCodeBadRequest = "bad-request"
	// errCodeScore marks a scoring failure on an installed job.
	errCodeScore = "score-failed"
	// errCodeEncode marks a reply that could not be encoded as JSON.
	errCodeEncode = "encode-failed"
)

// errUnknownJob is the transport-level rendering of errCodeUnknownJob.
var errUnknownJob = errors.New("distsearch: worker does not hold the job")

// encodeCandidates renders partitions as wire keys.
func encodeCandidates(cands []partition.Partition) []string {
	keys := make([]string, len(cands))
	for i, p := range cands {
		keys[i] = p.Key()
	}
	return keys
}

// decodeCandidate parses one canonical RGS key ("0.1.0.2") back into a
// partition. The round trip through FromRGS re-canonicalizes, so a
// non-canonical or malformed key is rejected rather than silently
// reinterpreted.
func decodeCandidate(key string) (partition.Partition, error) {
	parts := strings.Split(key, ".")
	rgs := make([]int, len(parts))
	for i, tok := range parts {
		v, err := strconv.Atoi(tok)
		if err != nil || v < 0 {
			return partition.Partition{}, fmt.Errorf("distsearch: bad candidate key %q", key)
		}
		rgs[i] = v
	}
	p := partition.FromRGS(rgs)
	if p.Key() != key {
		return partition.Partition{}, fmt.Errorf("distsearch: non-canonical candidate key %q", key)
	}
	return p, nil
}
