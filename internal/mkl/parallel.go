// The search loop shared by every lattice strategy. A strategy proposes
// candidates in canonical order, scores them through its evaluator's
// scorer, and reduces the scores in canonical order, stopping where the
// sequential walk stops. The scorer is a scorePool: in process it fans a
// batch out to Config.Parallelism workers (internal/parsearch), each
// owning a scratch Evaluator whose Gram buffers are reused across
// candidates, with per-block Gram matrices shared through the evaluator's
// concurrency-safe Gram-block cache; with a CandidateScorer attached
// (Evaluator.SetScorer) it hands the batch to that scorer instead. Because
// the reduction is an index-order scan, the selected partition, score,
// trace and progress stream are bit-identical at every worker count and
// for every scorer.
package mkl

import (
	"sync"

	"repro/internal/parsearch"
	"repro/internal/partition"
)

// sharedScores pools candidate scores across the scratch evaluators of one
// parallel search, so a configuration computed by any worker is a cache hit
// for every other.
type sharedScores struct {
	mu sync.RWMutex
	m  map[string]float64
}

func newSharedScores(seed map[string]float64) *sharedScores {
	m := make(map[string]float64, len(seed))
	for k, v := range seed {
		m[k] = v
	}
	return &sharedScores{m: m}
}

func (s *sharedScores) get(key string) (float64, bool) {
	s.mu.RLock()
	v, ok := s.m[key]
	s.mu.RUnlock()
	return v, ok
}

func (s *sharedScores) put(key string, v float64) {
	s.mu.Lock()
	s.m[key] = v
	s.mu.Unlock()
}

// scorePool is the scorer of one search. It owns the in-process parallel
// machinery — the worker-owned scratch evaluators (whose Gram buffers
// persist across every batch of the search) and the pooled score cache,
// seeded once from the parent evaluator's cache — or, when the parent has
// a CandidateScorer attached, forwards every batch to it. Call finish
// exactly once, after the last scoreAll, to fold worker caches and
// counters back into the parent.
type scorePool struct {
	parent  *Evaluator
	workers int
	scratch []*Evaluator
}

func newScorePool(e *Evaluator) *scorePool {
	p := &scorePool{parent: e, workers: e.workers()}
	if e.remote == nil && p.workers > 1 {
		shared := newSharedScores(e.cache)
		p.scratch = make([]*Evaluator, p.workers)
		for w := range p.scratch {
			p.scratch[w] = e.scratchClone(shared)
		}
	}
	return p
}

// scoreAll evaluates every candidate and returns the scores in candidate
// order, plus any per-candidate errors (index-aligned, nil when the whole
// set scored clean). With one worker it scores directly on the parent and
// stops at the first failing candidate. With more, candidate errors do
// not abort the pool: the walk scans candidates
// in canonical order and surfaces an error only when the sequential walk
// would actually have reached that candidate, so speculation never fails a
// search the sequential walk would finish. A remote batch goes through the
// parent's score cache first (scoreVia).
//
// Cancellation of the parent evaluator's bound context stops the pool from
// claiming further candidates; candidates the cancellation kept from
// completing are recorded as ctx.Err() at their index, so the canonical
// scan surfaces the cancellation exactly where a sequential search would
// have hit it and everything before it still reduces into the partial
// result.
func (p *scorePool) scoreAll(cands []partition.Partition) ([]float64, []error) {
	if p.parent.remote != nil {
		return p.parent.scoreVia(p.parent.remote, cands)
	}
	var errs []error
	noteErr := func(i int, err error) {
		if errs == nil {
			errs = make([]error, len(cands))
		}
		errs[i] = err
	}
	if p.workers <= 1 {
		scores := make([]float64, len(cands))
		for i, q := range cands {
			s, err := p.parent.Score(q)
			if err != nil {
				noteErr(i, err)
				break
			}
			scores[i] = s
		}
		return scores, errs
	}
	var mu sync.Mutex
	// done[i] is written only by the worker that claimed candidate i and
	// read after the pool's WaitGroup barrier, so it needs no lock.
	done := make([]bool, len(cands))
	scores, runErr := parsearch.RunContext(p.parent.searchCtx(), len(cands), p.workers, func(worker, index int) (float64, error) {
		s, err := p.scratch[worker].Score(cands[index])
		if err != nil {
			mu.Lock()
			noteErr(index, err)
			mu.Unlock()
			return 0, nil
		}
		done[index] = true
		return s, nil
	})
	if runErr != nil {
		for i := range cands {
			if !done[i] && errAt(errs, i) == nil {
				noteErr(i, runErr)
			}
		}
	}
	return scores, errs
}

// finish folds the scratch evaluators' score caches and counters into the
// parent evaluator. Call once, before reading the parent's counters.
// Remote scores are already in the parent: scoreVia records them.
func (p *scorePool) finish() {
	e := p.parent
	for _, w := range p.scratch {
		e.calls += w.calls
		e.evals += w.evals
		for k, v := range w.cache {
			if _, ok := e.cache[k]; !ok {
				e.cache[k] = v
			}
		}
	}
	p.scratch = nil
}

// walk feeds cands to visit in canonical order until visit returns false
// or a candidate fails; the failure is returned after everything before it
// was visited. Sequentially it is a plain loop — score one candidate,
// visit it — so a cancellation raised from a progress callback lands at
// the next candidate. Otherwise candidates are scored in batches: the
// whole list for a remote scorer or a walk that runs to the end, and
// speculationPerWorker candidates per worker for an in-process walk that
// may stop early (stopEarly), bounding the work wasted past the stop.
func (p *scorePool) walk(cands []partition.Partition, stopEarly bool, visit func(i int, s float64) bool) error {
	if p.parent.remote == nil && p.workers <= 1 {
		for i, q := range cands {
			s, err := p.parent.Score(q)
			if err != nil {
				return err
			}
			if !visit(i, s) {
				return nil
			}
		}
		return nil
	}
	size := len(cands)
	if stopEarly && p.parent.remote == nil {
		size = p.workers * speculationPerWorker
	}
	for off := 0; off < len(cands); off += size {
		scores, errs := p.scoreAll(cands[off:min(off+size, len(cands))])
		for i, s := range scores {
			if err := errAt(errs, i); err != nil {
				return err
			}
			if !visit(off+i, s) {
				return nil
			}
		}
	}
	return nil
}

// runSearch runs one strategy's walks over a fresh scorePool and returns
// res with Evaluations set to the candidates the reduction consumed —
// len(res.Trace), the same at every worker count and for every scorer.
// Speculative extra work shows only in Calls and Evaluations of the
// evaluator.
func (e *Evaluator) runSearch(res *Result, body func(p *scorePool) error) (*Result, error) {
	pool := newScorePool(e)
	err := body(pool)
	pool.finish()
	res.Evaluations = len(res.Trace)
	return res, err
}

// errAt returns the recorded error for candidate i, if any.
func errAt(errs []error, i int) error {
	if errs == nil {
		return nil
	}
	return errs[i]
}

// speculationPerWorker sizes the per-worker lookahead of an in-process
// early-stopping walk: enough work to keep every worker busy, small
// enough that an early stop wastes little.
const speculationPerWorker = 4
