// The remote scorer of the lattice search. An Evaluator with a
// CandidateScorer attached (SetScorer) — internal/distsearch implements it
// as a shard-dispatching coordinator over remote worker processes — sends
// every candidate batch of its searches to that scorer instead of the
// in-process pool, through its score cache (scoreVia). The strategies
// reduce the returned scores in canonical candidate order exactly as they
// do in process, and remote workers score with the same deterministic
// evaluation pipeline, so the selected partition and score are
// bit-identical to the sequential walk no matter how many processes or
// threads scored the candidates, which worker scored which shard, or which
// failures were retried along the way.
//
// ScoreShard is the other half of the contract: the entry point a worker
// process uses to score its shard with the existing scratch evaluators
// (one per local worker thread, Gram buffers reused across candidates).
package mkl

import (
	"context"
	"time"

	"repro/internal/partition"
)

// CandidateScorer scores a batch of candidate partitions positioned by
// index. Implementations return scores[i] for cands[i] plus an
// index-aligned error slice (nil when the whole batch scored clean); a
// per-candidate error must occupy the candidate's index so the caller's
// canonical-order reduction can surface it exactly where a sequential
// search would have failed. ScoreCandidates may be called several times
// during one search (greedy climbs score one cover batch per step) and
// must return bit-identical scores for a repeated candidate.
type CandidateScorer interface {
	ScoreCandidates(ctx context.Context, cands []partition.Partition) ([]float64, []error)
}

// SetScorer attaches sc as the scorer of every search run over this
// evaluator, in place of the in-process worker pool; nil restores the
// pool. Candidates already in the evaluator's score cache are never sent
// to sc.
func (e *Evaluator) SetScorer(sc CandidateScorer) { e.remote = sc }

// ScoreShard scores one shard of the candidate lattice on the evaluator —
// the worker-process entry point of the distributed search. Candidates are
// scored with the evaluator's configured parallelism (scratch evaluators,
// shared Gram-block cache — the exact machinery of the in-process
// searches), and the scores come back in candidate order. The first
// error in canonical candidate order is returned, matching the sequential
// scan's error choice; scores before it are still valid.
func ScoreShard(e *Evaluator, cands []partition.Partition) ([]float64, error) {
	pool := newScorePool(e)
	scores, errs := pool.scoreAll(cands)
	pool.finish()
	for i := range cands {
		if err := errAt(errs, i); err != nil {
			return scores, err
		}
	}
	return scores, nil
}

// record enters one remotely computed candidate score into the evaluator's
// cache and counters as if Score had computed it locally: one call, one
// evaluation (remote scores are always cache misses — scoreVia consults
// the cache first), and the score is memoized for later visits.
func (e *Evaluator) record(p partition.Partition, s float64) {
	e.calls++
	e.evals++
	if e.cache == nil {
		e.cache = map[string]float64{}
	}
	e.cache[p.Key()] = s
}

// scoreVia evaluates cands through sc, consulting the evaluator's score
// cache first so already-scored configurations (a greedy climb re-visiting
// its incumbent's covers) never travel over the wire. Scores are returned
// in candidate order alongside an index-aligned error slice (nil when
// clean), mirroring scorePool.scoreAll's contract so the same reductions
// apply. Duplicate candidates inside one batch are dispatched once.
func (e *Evaluator) scoreVia(sc CandidateScorer, cands []partition.Partition) ([]float64, []error) {
	scores := make([]float64, len(cands))
	var errs []error
	noteErr := func(i int, err error) {
		if errs == nil {
			errs = make([]error, len(cands))
		}
		errs[i] = err
	}
	if err := e.searchCtx().Err(); err != nil {
		for i := range cands {
			noteErr(i, err)
		}
		return scores, errs
	}
	// Collect the cache misses, deduplicated by canonical key.
	missAt := make(map[string]int, len(cands)) // key → index into miss slices
	var miss []partition.Partition
	for _, p := range cands {
		key := p.Key()
		if _, ok := e.cache[key]; ok {
			continue
		}
		if _, ok := missAt[key]; ok {
			continue
		}
		missAt[key] = len(miss)
		miss = append(miss, p)
	}
	var dScores []float64
	var dErrs []error
	if len(miss) > 0 {
		dScores, dErrs = sc.ScoreCandidates(e.searchCtx(), miss)
	}
	recorded := make(map[string]bool, len(miss))
	for i, p := range cands {
		key := p.Key()
		if s, ok := e.cache[key]; ok {
			e.calls++ // cache hit, like Score
			scores[i] = s
			continue
		}
		mi := missAt[key]
		if err := errAt(dErrs, mi); err != nil {
			noteErr(i, err)
			continue
		}
		s := dScores[mi]
		if !recorded[key] {
			recorded[key] = true
			e.record(p, s)
		} else {
			e.calls++ // duplicate within the batch: second visit is a hit
		}
		scores[i] = s
	}
	return scores, errs
}

// EmitDistEvent delivers one coordinator progress event (shard dispatch,
// retry, re-dispatch, worker loss, fallback) to the configured progress
// callback. The coordinator serializes calls, so the callback keeps its
// no-synchronization contract; without a callback this is free.
//
//iotml:allow walltime -- event timestamps are observability metadata; they never feed scoring or selection
func (e *Evaluator) EmitDistEvent(kind EventKind, detail string) {
	fn := e.cfg.Progress
	if fn == nil {
		return
	}
	fn(Event{Kind: kind, Time: time.Now(), Detail: detail})
}
