package mkl

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"

	"repro/internal/dataset"
	"repro/internal/kernelmachine"
	"repro/internal/linalg"
	"repro/internal/partition"
)

// The scorer contract of the search strategies, without HTTP: every strategy run
// through the in-process pool at any worker count, or through a remote
// CandidateScorer, must reproduce the Parallelism: 1 walk — Best, Score,
// Trace, Evaluations and the progress stream — and a candidate failure
// must leave the same partial result and error.

var errInjected = errors.New("injected training failure")

// failingTrainer fails its at-th Train call (1-based; 0 fails every call)
// and otherwise trains the wrapped trainer. Like refTrainer it hides any
// ScratchTrainer, so the evaluator runs the reference CV loop and calls
// Train once per fold.
type failingTrainer struct {
	kernelmachine.Trainer
	calls *atomic.Int64
	at    int64
}

func (f failingTrainer) Train(g *linalg.Matrix, y []int) (kernelmachine.Model, error) {
	if n := f.calls.Add(1); f.at == 0 || n == f.at {
		return nil, errInjected
	}
	return f.Trainer.Train(g, y)
}

// twinScorer is a CandidateScorer that scores each batch on a twin
// evaluator — the role a remote worker plays — and fails the candidate
// whose key is failKey by scoring it on failTwin, whose trainer always
// fails, so the error is the one a local evaluation would produce.
type twinScorer struct {
	twin, failTwin *Evaluator
	failKey        string
	batches        []int
}

func (f *twinScorer) ScoreCandidates(_ context.Context, cands []partition.Partition) ([]float64, []error) {
	f.batches = append(f.batches, len(cands))
	scores := make([]float64, len(cands))
	var errs []error
	for i, p := range cands {
		ev := f.twin
		if p.Key() == f.failKey {
			ev = f.failTwin
		}
		s, err := ev.Score(p)
		if err != nil {
			if errs == nil {
				errs = make([]error, len(cands))
			}
			errs[i] = err
			continue
		}
		scores[i] = s
	}
	return scores, errs
}

// searchStrategies covers every strategy and both ascent rules.
var searchStrategies = []struct {
	name string
	run  SearchFunc
}{
	{"chain-best", func(e *Evaluator, s partition.Partition) (*Result, error) { return ChainSearch(e, s, BestOfChain) }},
	{"chain-first", func(e *Evaluator, s partition.Partition) (*Result, error) { return ChainSearch(e, s, FirstImprovement) }},
	{"exhaustive", ExhaustiveCone},
	{"greedy", GreedyRefine},
}

// searchRun is one search outcome plus the progress stream it emitted.
type searchRun struct {
	res    *Result
	err    error
	events []eventRecord
}

func runSearchCase(t *testing.T, cfg Config, sc CandidateScorer, run SearchFunc, seed partition.Partition) searchRun {
	t.Helper()
	var out searchRun
	cfg.Progress = func(ev Event) { out.events = append(out.events, record(ev)) }
	e, err := NewEvaluator(scorerTestData(t), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if sc != nil {
		e.SetScorer(sc)
	}
	out.res, out.err = run(e, seed)
	return out
}

func scorerTestData(t testing.TB) *dataset.Dataset { return parallelTestDataDim(t, 5, 40, 71) }

func scorerTestConfig(tr kernelmachine.Trainer, workers int) Config {
	return Config{Objective: CVAccuracy, Seed: 2, Trainer: tr, Parallelism: workers}
}

func newTwinScorer(t *testing.T, failKey string) *twinScorer {
	t.Helper()
	d := scorerTestData(t)
	twin, err := NewEvaluator(d, scorerTestConfig(refTrainer{kernelmachine.Ridge{}}, 1))
	if err != nil {
		t.Fatal(err)
	}
	failTwin, err := NewEvaluator(d, scorerTestConfig(failingTrainer{kernelmachine.Ridge{}, new(atomic.Int64), 0}, 1))
	if err != nil {
		t.Fatal(err)
	}
	return &twinScorer{twin: twin, failTwin: failTwin, failKey: failKey}
}

func assertSameRun(t *testing.T, label string, got, want searchRun) {
	t.Helper()
	if (got.err == nil) != (want.err == nil) || (got.err != nil && got.err.Error() != want.err.Error()) {
		t.Fatalf("%s: err %v, sequential %v", label, got.err, want.err)
	}
	g, w := got.res, want.res
	if !g.Best.Equal(w.Best) || g.Score != w.Score || g.Evaluations != w.Evaluations {
		t.Fatalf("%s: (%v, %v, %d evals), sequential (%v, %v, %d evals)",
			label, g.Best, g.Score, g.Evaluations, w.Best, w.Score, w.Evaluations)
	}
	if len(g.Trace) != len(w.Trace) {
		t.Fatalf("%s: trace length %d, sequential %d", label, len(g.Trace), len(w.Trace))
	}
	for i := range w.Trace {
		if !g.Trace[i].Partition.Equal(w.Trace[i].Partition) || g.Trace[i].Score != w.Trace[i].Score {
			t.Fatalf("%s: trace[%d] = %v, sequential %v", label, i, g.Trace[i], w.Trace[i])
		}
	}
	if len(got.events) != len(want.events) {
		t.Fatalf("%s: %d events, sequential %d", label, len(got.events), len(want.events))
	}
	for i := range want.events {
		if got.events[i] != want.events[i] {
			t.Fatalf("%s: event %d = %+v, sequential %+v", label, i, got.events[i], want.events[i])
		}
	}
}

// TestSearchSameAtEveryScorer: the pool at workers {1,2,8} and a
// remote scorer reproduce the Parallelism: 1 walk exactly, for every
// strategy and ascent rule; Evaluations is the trace length throughout.
func TestSearchSameAtEveryScorer(t *testing.T) {
	seed := partition.Coarsest(5)
	ref := refTrainer{kernelmachine.Ridge{}}
	for _, st := range searchStrategies {
		want := runSearchCase(t, scorerTestConfig(ref, 1), nil, st.run, seed)
		if want.err != nil {
			t.Fatal(want.err)
		}
		if want.res.Evaluations != len(want.res.Trace) {
			t.Fatalf("%s: Evaluations %d, trace length %d", st.name, want.res.Evaluations, len(want.res.Trace))
		}
		for _, workers := range []int{1, 2, 8} {
			got := runSearchCase(t, scorerTestConfig(ref, workers), nil, st.run, seed)
			assertSameRun(t, fmt.Sprintf("%s workers=%d", st.name, workers), got, want)
		}
		sc := newTwinScorer(t, "")
		got := runSearchCase(t, scorerTestConfig(ref, 8), sc, st.run, seed)
		assertSameRun(t, st.name+" remote", got, want)
		// The remote scorer takes whole lists: the cone in one batch, and
		// the climb's seed, then each step's whole cover set.
		if st.name == "exhaustive" && (len(sc.batches) != 1 || sc.batches[0] != 52) {
			t.Fatalf("remote cone dispatched batches %v, want one batch of Bell(5) = 52", sc.batches)
		}
		if st.name == "greedy" && (len(sc.batches) < 2 || sc.batches[0] != 1 || sc.batches[1] != 15) {
			t.Fatalf("remote climb dispatched batches %v, want the seed, then all 15 covers of the coarsest partition", sc.batches)
		}
	}
}

// TestRemoteScorerFailureMatchesSequential: a remote scorer failing the
// k-th candidate of the walk yields the partial result, progress stream
// and error the sequential walk yields when its own evaluation of that
// candidate fails — even though the remote batch scored candidates past k.
func TestRemoteScorerFailureMatchesSequential(t *testing.T) {
	seed := partition.Coarsest(5)
	const folds = 4 // scorerTestConfig's default fold count
	for _, st := range searchStrategies {
		clean := runSearchCase(t, scorerTestConfig(refTrainer{kernelmachine.Ridge{}}, 1), nil, st.run, seed)
		if clean.err != nil {
			t.Fatal(clean.err)
		}
		for _, k := range []int{0, len(clean.res.Trace) / 2, len(clean.res.Trace) - 1} {
			// Every candidate of these walks is a cache miss, so the k-th
			// one trains folds k·folds+1 … (k+1)·folds.
			failing := failingTrainer{kernelmachine.Ridge{}, new(atomic.Int64), int64(k*folds + 1)}
			want := runSearchCase(t, scorerTestConfig(failing, 1), nil, st.run, seed)
			if !errors.Is(want.err, errInjected) || len(want.res.Trace) != k {
				t.Fatalf("%s k=%d: sequential walk err %v after %d candidates, want the injected failure at %d",
					st.name, k, want.err, len(want.res.Trace), k)
			}
			sc := newTwinScorer(t, clean.res.Trace[k].Partition.Key())
			got := runSearchCase(t, scorerTestConfig(refTrainer{kernelmachine.Ridge{}}, 8), sc, st.run, seed)
			if !errors.Is(got.err, errInjected) {
				t.Fatalf("%s k=%d: remote err %v, want the injected failure", st.name, k, got.err)
			}
			assertSameRun(t, fmt.Sprintf("%s remote k=%d", st.name, k), got, want)
		}
	}
}
