package main

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro"
	"repro/internal/dataset"
	"repro/internal/distsearch"
	"repro/internal/model"
)

// fitWorkload describes one closed-loop fit workload.
type fitWorkload struct {
	n    int
	gen  func(n int, seed int64) *dataset.Dataset
	opts []iotml.Option
	pool int  // datasets cycled through; 0 = a fresh dataset every fit
	dist bool // search over a loopback distsearch fleet
}

// distSpec is the evaluator configuration fit-dist ships to its workers.
var distSpec = distsearch.Spec{Objective: "alignment", Backend: "f32"}

const (
	fleetWorkers = 2
	probeSamples = 2000 // calls per probe at least: enough to quote a p99
)

func fitWorkloadFor(name string, smoke bool) (fitWorkload, bool) {
	align := []iotml.Option{iotml.WithObjective(iotml.KernelAlignment), iotml.WithStrategy(iotml.SearchExhaustive)}
	switch name {
	case "fit-align":
		return fitWorkload{n: pick(smoke, 80, 1000), gen: twoClass, opts: align, pool: pick(smoke, 2, 4)}, true
	case "fit-dist":
		return fitWorkload{n: pick(smoke, 80, 1000), gen: twoClass, dist: true}, true
	}
	return fitWorkload{}, false
}

func pick(smoke bool, tiny, full int) int {
	if smoke {
		return tiny
	}
	return full
}

// distOptions are fit-dist's options against a fleet.
func distOptions(addrs []string) []iotml.Option {
	return []iotml.Option{
		iotml.WithStrategy(iotml.SearchExhaustive),
		iotml.WithDistributedWorkers(iotml.DistOptions{Workers: addrs, Spec: distSpec}),
	}
}

// referenceOptions are the in-process options whose selection a measured
// fit must reproduce: the same configuration at the given parallelism (for
// fit-dist, the in-process fit of the same spec).
func (w fitWorkload) referenceOptions(parallelism int) ([]iotml.Option, error) {
	if w.dist {
		cfg, err := distSpec.Config()
		if err != nil {
			return nil, err
		}
		cfg.Parallelism = parallelism
		return []iotml.Option{iotml.WithConfig(iotml.FitConfig{Search: iotml.SearchExhaustive, MKL: cfg})}, nil
	}
	return append(append([]iotml.Option(nil), w.opts...), iotml.WithParallelism(parallelism)), nil
}

// fitRun holds one fit workload run.
type fitRun struct {
	w     fitWorkload
	rc    runConfig
	rep   *report
	tr    *Tracer
	fs    *fleetStats
	fleet *fleet
}

func (f *fitRun) input(stream, i int) (input, error) {
	s := subSeed(f.rc.seed, stream, i)
	return encode(fmt.Sprintf("d%d-%d", stream, i), f.w.gen(f.w.n, s))
}

func (f *fitRun) options() []iotml.Option {
	if f.w.dist {
		return distOptions(f.fleet.addrs)
	}
	return f.w.opts
}

func runFit(ctx context.Context, name string, rc runConfig, rep *report) error {
	w, _ := fitWorkloadFor(name, rc.smoke)
	f := &fitRun{w: w, rc: rc, rep: rep}
	if rc.trace {
		f.tr = newTracer()
	}
	f.fs = newFleetStats(f.tr)
	defer func() {
		if f.fleet != nil {
			f.fleet.stop()
		}
	}()

	// Set-up: the cold warm-up fit (for fit-dist also worker start and
	// health check), repeated; setup_s is the median.
	var cal *calibrator
	if !rc.trace {
		cal = newCalibrator()
	}
	var setups []float64
	var warm []fitOutcome
	for i := 0; i < setupReps; i++ {
		in, err := f.input(1, i)
		if err != nil {
			return err
		}
		t0 := time.Now()
		if w.dist {
			if f.fleet, err = startFleet(ctx, fleetWorkers, f.fs); err != nil {
				return err
			}
		}
		out, err := fitOnce(ctx, in, f.options(), false, nil, "", nil)
		if err != nil {
			return fmt.Errorf("warm-up fit: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		cal.pause()
		f.tr.Add("setup", fmt.Sprintf("setup-%d", i), 0, t0, time.Now())
		if w.dist && i < setupReps-1 {
			f.fleet.stop()
			f.fleet = nil
		}
		warm = append(warm, out)
	}

	// Reference selections of the pool, made before and outside the timed
	// region (fit-dist references its fresh datasets after the loop).
	var pool []input
	refs := map[string]selection{}
	for j := 0; j < w.pool; j++ {
		in, err := f.input(2, j)
		if err != nil {
			return err
		}
		pool = append(pool, in)
	}
	for _, in := range pool {
		if err := f.reference(ctx, in, refs); err != nil {
			return err
		}
	}

	// Measured phase: a closed loop of whole fits. Its peak resident
	// memory is the workload's: set-up and references stay outside it.
	if err := resetPeakRSS(); err != nil {
		rep.note("peak RSS could not be reset: " + err.Error())
	}
	fs0 := f.fs.snapshot()
	var outs []fitOutcome
	var traced, untraced []float64
	var probes []probeResult
	var last *model.Artifact
	var lastRows [][]float64
	deadline := time.Now().Add(rc.seconds)
	for k := 0; time.Now().Before(deadline) || k < minFits; k++ {
		watch := rc.trace && k%2 == 0
		var in input
		switch {
		case w.dist:
			var err error
			if in, err = f.input(2, k); err != nil {
				return err
			}
		case rc.trace:
			in = pool[(k/2)%len(pool)] // a traced and an untraced fit per dataset
		default:
			in = pool[k%len(pool)]
		}
		var tr *Tracer
		if watch {
			tr = f.tr
		}
		// Every fit starts from a collected heap, so no fit pays for the
		// garbage of the one before it.
		runtime.GC()
		out, err := fitOnce(ctx, in, f.options(), watch, tr, fmt.Sprintf("fit-%d", k), f.fs)
		if err != nil {
			return err
		}
		outs = append(outs, out)
		if watch {
			traced = append(traced, out.wall.Seconds())
		} else {
			untraced = append(untraced, out.wall.Seconds())
		}
		// Between fits and outside their timing, gate the artifact and (in
		// an untraced run) probe its predictions, so the probes sample the
		// whole measured phase and not one moment of it.
		d, err := parse(out.in)
		if err != nil {
			return err
		}
		art, want, err := gateArtifact(out.art, d.X)
		rep.gates.check(err)
		if err != nil {
			continue
		}
		last, lastRows = art, d.X
		if !rc.trace {
			runtime.GC()
			pr, err := predictProbe(art, d.X, want, probeSamples)
			rep.gates.check(err)
			if err == nil {
				probes = append(probes, pr)
			}
		}
		cal.pause()
	}
	fsDelta := f.fs.snapshot().minus(fs0)
	peak, peakErr := peakRSSMB()

	walls := make([]float64, len(outs))
	for i, o := range outs {
		walls[i] = o.wall.Seconds()
	}
	if !rc.trace {
		rep.calibration(cal)
		rep.setRef("setup_s", "s", median(setups), cal.fitFactor(), len(setups), "median of set-ups")
		rep.setRef("fit_p50_s", "s", median(walls), cal.fitFactor(), len(walls), "median fit, CSV bytes to saved artifact bytes")
		if peakErr != nil {
			return peakErr
		}
		rep.set("peak_rss_mb", "MB", peak, 1, "VmHWM over the measured fits")
		var p50s, p99s, rates []float64
		for _, p := range probes {
			p50s, p99s, rates = append(p50s, p.p50), append(p99s, p.p99), append(rates, p.rate)
		}
		n := len(probes) * probeSamples
		note := fmt.Sprintf("in-process 1-row Predictor.ScoresInto on 2 goroutines: median over %d probes, one after each measured fit", len(probes))
		rep.setRef("predict_p50_ms", "ms", median(p50s), cal.computeFactor(), n, note)
		rep.set("predict_p99_ms", "ms", median(p99s), n, note)
		rep.set("max_rate_rps", "1/s", median(rates), n, note)
	}

	// Selection gates, outside the timed region: every measured fit's
	// selection against its reference. The warm-up fits' artifacts are
	// gated too.
	for _, o := range outs {
		if _, ok := refs[o.in.name]; !ok {
			if err := f.reference(ctx, o.in, refs); err != nil {
				return err
			}
		}
		rep.gates.check(gateSelection(selection{o.best, o.score}, refs[o.in.name]))
	}
	for _, o := range warm {
		d, err := parse(o.in)
		if err != nil {
			return err
		}
		_, _, err = gateArtifact(o.art, d.X)
		rep.gates.check(err)
	}
	if len(outs) > 0 {
		d, err := parse(outs[0].in)
		if err != nil {
			return err
		}
		if err := gateSelfCheck(selection{outs[0].best, outs[0].score}, outs[0].art, d.X, expected{}); err != nil {
			rep.selfCheckFailed(err)
		}
	}
	if w.dist {
		rep.set("distsearch.cached_job_share", "ratio", float64(fsDelta.cachedJobs)/float64(max(fsDelta.installs, 1)), fsDelta.installs, "installs of a job the worker already held")
	}
	if rc.trace {
		return f.layers(ctx, outs, traced, untraced, pool, fsDelta, last, lastRows)
	}
	return nil
}

// reference fits in outside every timed region and records its selection.
func (f *fitRun) reference(ctx context.Context, in input, refs map[string]selection) error {
	// The in-process twin of a distributed fit runs at the default
	// parallelism: its selection is identical at every worker count.
	parallelism := 1
	if f.w.dist {
		parallelism = 0
	}
	opts, err := f.w.referenceOptions(parallelism)
	if err != nil {
		return err
	}
	out, err := fitOnce(ctx, in, opts, false, nil, "", nil)
	if err != nil {
		return fmt.Errorf("reference fit: %w", err)
	}
	refs[in.name] = selection{out.best, out.score}
	return nil
}

// probeResult is one predict probe: its per-call p50 and p99 in ms and
// its calls per second.
type probeResult struct{ p50, p99, rate float64 }

// predictProbe scores the rows one at a time through two predictors of the
// artifact on two goroutines, passing over them until at least minCalls
// calls are made, and checks each score bit-matches the batch score
// want[i]. Two streams keep both cores busy, as a loaded edge node's are:
// on a shared host one stream's speed swings with what the idle core's
// neighbours do, two streams' much less.
func predictProbe(art *model.Artifact, rows [][]float64, want []float64, minCalls int) (probeResult, error) {
	const streams = 2
	preds := make([]*model.Predictor, streams)
	for s := range preds {
		p, err := model.NewPredictor(art)
		if err != nil {
			return probeResult{}, err
		}
		preds[s] = p
	}
	calls := len(rows) * ((max(minCalls, 1) + len(rows) - 1) / len(rows))
	lat := make([]float64, calls)
	errs := make([]error, streams)
	var wg sync.WaitGroup
	t0 := time.Now()
	for s := 0; s < streams; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			var dst []float64
			var err error
			for c := s; c < calls; c += streams {
				i := c % len(rows)
				t := time.Now()
				dst, err = preds[s].ScoresInto(dst, rows[i:i+1])
				lat[c] = ms(time.Since(t))
				if err != nil {
					errs[s] = err
					return
				}
				if !sameBits(dst, want[i:i+1]) {
					errs[s] = fmt.Errorf("1-row score of row %d differs from its batch score", i)
					return
				}
			}
		}(s)
	}
	wg.Wait()
	wall := time.Since(t0)
	for _, err := range errs {
		if err != nil {
			return probeResult{}, err
		}
	}
	sl := sortedCopy(lat)
	return probeResult{p50: percentile(sl, 0.5), p99: percentile(sl, 0.99), rate: float64(calls) / wall.Seconds()}, nil
}
