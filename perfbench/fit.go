package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime/metrics"
	"time"

	"repro"
	"repro/internal/dataset"
	"repro/internal/partition"
)

// candidate is one configuration the search scored, as the progress
// stream reported it.
type candidate struct {
	p     partition.Partition
	score float64
}

// progress records the public progress stream of one fit: when the seed
// was selected and the search finished, every candidate scored, and the
// distributed coordinator's retry/fallback events.
type progress struct {
	seedAt, searchAt time.Time
	cands            []candidate
	retries          int
	redispatches     int
	fallbacks        int
}

func (p *progress) on(ev iotml.Event) {
	switch ev.Kind {
	case iotml.EventSeedSelected:
		p.seedAt = time.Now()
	case iotml.EventCandidateEvaluated:
		p.cands = append(p.cands, candidate{p: ev.Partition, score: ev.Score})
	case iotml.EventSearchFinished:
		p.searchAt = time.Now()
	case iotml.EventShardRetried:
		p.retries++
	case iotml.EventShardRedispatched:
		p.redispatches++
	case iotml.EventDistFallback:
		p.fallbacks++
	}
}

// fitOutcome is what one CSV → artifact fit produced.
type fitOutcome struct {
	in        input
	best      string
	score     float64
	art       []byte
	wall      time.Duration
	seed      time.Duration // Fit call → seed-selected
	search    time.Duration // seed-selected → search-finished
	readCSV   time.Duration
	deploy    time.Duration
	save      time.Duration
	allocated uint64 // heap bytes allocated during the fit
	prog      *progress
}

// fitOnce runs one whole fit from CSV bytes to saved artifact bytes:
// ReadCSV → Fit → FitResult.Artifact → Artifact.Save. With watch set it
// also follows the progress stream and counts allocated bytes; tr (nil
// when untraced) receives one span per layer call under a root span.
//
// fs, when non-nil, is told which fit the worker requests that follow
// belong to.
func fitOnce(ctx context.Context, in input, opts []iotml.Option, watch bool, tr *Tracer, op string, fs *fleetStats) (fitOutcome, error) {
	out := fitOutcome{in: in}
	var allocs0 uint64
	if watch {
		out.prog = &progress{}
		opts = append(append([]iotml.Option(nil), opts...), iotml.WithProgress(out.prog.on))
		allocs0 = heapAllocated()
	}
	t0 := time.Now()
	root := tr.Reserve("fit", op, 0, t0)
	if fs != nil {
		fs.setOp(op, root)
	}
	d, err := iotml.ReadCSV(bytes.NewReader(in.csv), in.schema)
	t1 := time.Now()
	tr.Add("dataset.read_csv", op, root, t0, t1)
	if err != nil {
		return out, fmt.Errorf("%s: ReadCSV: %w", in.name, err)
	}
	res, err := iotml.Fit(ctx, d, opts...)
	t2 := time.Now()
	fitSpan := tr.Add("core.fit", op, root, t1, t2)
	if err != nil {
		return out, fmt.Errorf("%s: Fit: %w", in.name, err)
	}
	if out.prog != nil && !out.prog.seedAt.IsZero() && !out.prog.searchAt.IsZero() {
		out.seed = out.prog.seedAt.Sub(t1)
		out.search = out.prog.searchAt.Sub(out.prog.seedAt)
		tr.Add("mkl.seed", op, fitSpan, t1, out.prog.seedAt)
		tr.Add("mkl.search", op, fitSpan, out.prog.seedAt, out.prog.searchAt)
	}
	art, err := res.Artifact()
	t3 := time.Now()
	tr.Add("core.deploy", op, root, t2, t3)
	if err != nil {
		return out, fmt.Errorf("%s: Artifact: %w", in.name, err)
	}
	var buf bytes.Buffer
	if err := art.Save(&buf); err != nil {
		return out, fmt.Errorf("%s: Save: %w", in.name, err)
	}
	t4 := time.Now()
	tr.Add("model.save", op, root, t3, t4)
	tr.Finish(root, t4)
	if watch {
		out.allocated = heapAllocated() - allocs0
	}
	out.best, out.score, out.art = res.Best.Key(), res.Score, buf.Bytes()
	out.wall, out.readCSV, out.deploy, out.save = t4.Sub(t0), t1.Sub(t0), t3.Sub(t2), t4.Sub(t3)
	return out, nil
}

// heapAllocated reads the process's cumulative heap allocation counter.
func heapAllocated() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

// parse re-reads an input's CSV outside any timed region (for reference
// rows and replays).
func parse(in input) (*dataset.Dataset, error) {
	d, err := iotml.ReadCSV(bytes.NewReader(in.csv), in.schema)
	if err != nil {
		return nil, fmt.Errorf("%s: ReadCSV: %w", in.name, err)
	}
	return d, nil
}

func finite(xs []float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	return true
}
