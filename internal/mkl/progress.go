// Progress streaming for the lattice search: the evaluator owns an
// optional Config.Progress callback and the search strategies feed it a
// stream of Events — one per candidate evaluated, plus markers for seeding,
// best-so-far improvements, and search completion. The callback runs on the
// goroutine driving the search (never on a scratch worker), so consumers
// need no synchronization. Strategies emit their events in canonical
// candidate order during the deterministic reduction, so the event stream
// is identical at every worker count and for every scorer.
package mkl

import (
	"fmt"
	"time"

	"repro/internal/partition"
)

// EventKind discriminates the progress events a fit emits.
type EventKind int

const (
	// EventSeedSelected reports the rough-set-selected seed partition.
	// Partition/Score carry the seed and its (unevaluated) zero score.
	EventSeedSelected EventKind = iota
	// EventCandidateEvaluated reports one scored kernel configuration.
	EventCandidateEvaluated
	// EventBestImproved follows a candidate event whose score replaced the
	// incumbent best.
	EventBestImproved
	// EventSearchFinished marks the end of a lattice search (one chain
	// walked, one cone enumerated, one climb converged).
	EventSearchFinished
	// EventFitFinished marks the end of the whole fit.
	EventFitFinished

	// The dist-* kinds report the distributed coordinator's shard
	// lifecycle (internal/distsearch): dispatches, retries, re-dispatches
	// after a worker loss, and the local-scoring fallback. Unlike the
	// candidate events above they reflect real-time transport activity, so
	// their order and count vary run to run (retries depend on which
	// worker died when); the candidate-evaluated stream they surround
	// stays deterministic. Each carries a human-readable Detail line.

	// EventShardDispatched reports one shard handed to a worker.
	EventShardDispatched
	// EventShardRetried reports a failed shard attempt about to be retried
	// on the same worker after a backoff.
	EventShardRetried
	// EventShardRedispatched reports a dead worker's shard re-queued for a
	// live peer.
	EventShardRedispatched
	// EventWorkerDown reports a worker marked dead (unreachable, hung past
	// its deadline, or returning mismatched results after retries).
	EventWorkerDown
	// EventDistFallback reports the worker pool exhausted: remaining
	// shards are scored locally in-process.
	EventDistFallback
)

// String returns the stable machine-readable name of the kind (used by the
// CLI's JSONL progress sink).
func (k EventKind) String() string {
	switch k {
	case EventSeedSelected:
		return "seed-selected"
	case EventCandidateEvaluated:
		return "candidate-evaluated"
	case EventBestImproved:
		return "best-improved"
	case EventSearchFinished:
		return "search-finished"
	case EventFitFinished:
		return "fit-finished"
	case EventShardDispatched:
		return "shard-dispatched"
	case EventShardRetried:
		return "shard-retried"
	case EventShardRedispatched:
		return "shard-redispatched"
	case EventWorkerDown:
		return "worker-down"
	case EventDistFallback:
		return "dist-fallback"
	}
	return fmt.Sprintf("event-%d", int(k))
}

// Event is one step of the progress stream. Beyond the subject partition
// and its score, every event carries the best-so-far state so a consumer
// can render a live view from any single event.
type Event struct {
	Kind EventKind
	// Time is the wall-clock emission time.
	Time time.Time
	// Partition is the event's subject: the candidate just evaluated, the
	// selected seed, or the final best.
	Partition partition.Partition
	// Score is the subject's score (zero for EventSeedSelected, whose seed
	// has not been evaluated yet).
	Score float64
	// Best and BestScore are the incumbent best configuration after this
	// event.
	Best      partition.Partition
	BestScore float64
	// Evaluations counts the candidates evaluated so far in this search.
	Evaluations int
	// Detail carries the human-readable payload of the dist-* events
	// (shard range, worker address, failure reason); empty on the
	// deterministic candidate events.
	Detail string
}

// emit delivers one event to the configured progress callback, stamping the
// best-so-far state from res. It is a no-op without a callback, and costs
// no allocation with one (the Event is passed by value).
//
//iotml:allow walltime -- event timestamps are observability metadata; they never feed scoring or selection
func (e *Evaluator) emit(kind EventKind, p partition.Partition, score float64, res *Result) {
	fn := e.cfg.Progress
	if fn == nil {
		return
	}
	ev := Event{Kind: kind, Time: time.Now(), Partition: p, Score: score}
	if res != nil {
		ev.Best = res.Best
		ev.BestScore = res.Score
		ev.Evaluations = len(res.Trace)
	}
	fn(ev)
}

// observe appends one scored candidate to the search result, advances the
// incumbent under the strictly-greater rule the chain and exhaustive
// searches share, and emits the matching progress events. It reports
// whether the candidate improved the incumbent.
func (e *Evaluator) observe(res *Result, p partition.Partition, s float64) bool {
	res.Trace = append(res.Trace, Step{Partition: p, Score: s})
	improved := s > res.Score
	if improved {
		res.Score = s
		res.Best = p
	}
	e.emit(EventCandidateEvaluated, p, s, res)
	if improved {
		e.emit(EventBestImproved, p, s, res)
	}
	return improved
}
