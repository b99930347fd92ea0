package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro"
	"repro/internal/model"
	"repro/internal/serve"
	"repro/internal/stats"
)

// gridStep spaces the ladder's rate grid: two grid steps are exactly 10%,
// the coarse stride, and one is the ≈4.9% resolution of the final probe.
var gridStep = math.Sqrt(1.1)

const (
	modelID      = "m"
	predictPath  = "/v1/models/" + modelID + "/predict"
	clientConns  = 2                       // keep-alive connections of the load generator
	nominalRate  = 200.0                   // requests per second of the nominal phase
	swapEvery    = 2 * time.Second         // Registry.Load swaps m between generations this often
	batchShare   = 0.1                     // share of requests carrying batchRows rows
	batchRows    = 32                      // rows of a batch request
	gridBase     = 100.0                   // ladder rates are gridBase·gridStep^k
	ladderSteps  = 10                      // most ladder steps one run takes
	stepSamples  = 1150                    // requests a ladder step aims for (p99 needs 1000)
	minNominal   = 5500 * time.Millisecond // nominal phase floor: 1100 requests at 200/s
	ladderStartQ = 0.85                    // the ladder starts at this share of the estimated capacity
	nominalShare = 0.55                    // share of the run the nominal phase takes; the ladder has the rest
	serveSetups  = 15                      // server set-ups per run; setup_s is their median
	peakWindow   = time.Second             // peak_rss_mb is the median peak of windows this long

	// generationSeed fixes the data of generations A and B for every
	// workload seed. The partition a fit selects sets the cost of scoring
	// (1.1–4.7 ms per 32-row batch across 24 seeded biometric fits), and
	// that cost, not the server, would otherwise decide the latency tail
	// of each run. The traffic — schedule, body mix and rows — follows
	// the workload seed.
	generationSeed = 1
	genFits        = 4 // timed fits of each generation before and again after the measured phase
)

// body is one predict request body with the answer each generation gives.
type body struct {
	json []byte
	rows int
	exp  [2]expected
}

// generation is one served artifact.
type generation struct {
	bytes []byte
	art   *model.Artifact
}

// server is the system under test: a registry behind serve.New and an
// in-process HTTP listener.
type server struct {
	reg  *serve.Registry
	srv  *serve.Server
	hs   *http.Server
	addr string
	done chan struct{}
}

// startServer runs the set-up a user pays before the first prediction:
// model.Load → Registry.Load → serve.New → listen → first 200.
func startServer(gen generation, first []byte, tr *Tracer, op string) (*server, error) {
	t0 := time.Now()
	art, err := model.Load(bytes.NewReader(gen.bytes))
	t1 := time.Now()
	tr.Add("model.load", op, 0, t0, t1)
	if err != nil {
		return nil, fmt.Errorf("model.Load: %w", err)
	}
	s := &server{reg: serve.NewRegistry(), done: make(chan struct{})}
	if err := s.reg.Load(modelID, art); err != nil {
		return nil, fmt.Errorf("Registry.Load: %w", err)
	}
	if s.srv, err = serve.New(context.Background(), s.reg); err != nil {
		return nil, fmt.Errorf("serve.New: %w", err)
	}
	t2 := time.Now()
	tr.Add("serve.new", op, 0, t1, t2)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		s.srv.Close()
		return nil, fmt.Errorf("listen: %w", err)
	}
	s.addr = ln.Addr().String()
	s.hs = &http.Server{Handler: s.srv.Handler()}
	go func() {
		defer close(s.done)
		_ = s.hs.Serve(ln) // returns ErrServerClosed once stop closes it
	}()
	c, err := dialConn(s.addr, predictPath)
	if err != nil {
		s.stop()
		return nil, err
	}
	defer c.close()
	status, resp, err := c.post(first)
	tr.Add("first_request", op, 0, t2, time.Now())
	if err != nil {
		s.stop()
		return nil, fmt.Errorf("first request: %w", err)
	}
	if status != http.StatusOK {
		s.stop()
		return nil, fmt.Errorf("first request answered %d: %.120s", status, resp)
	}
	return s, nil
}

func (s *server) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.hs.Shutdown(ctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		s.hs.Close()
	}
	<-s.done
	s.srv.Close()
}

// serveRun holds one serve-mixed run.
type serveRun struct {
	rc         runConfig
	rep        *report
	tr         *Tracer
	gens       [2]generation
	genIn      [2]input
	sel        [2]selection // what each generation's fits select
	walls      []float64    // timed generation fits: fit_p50_s is their median
	cal        *calibrator  // times calibration passes between them
	retainedMB float64      // free heap the preparation left resident
	bodies     []body
	ones       []int // indices of 1-row bodies
	multi      []int // indices of batch bodies
	s          *server
	conns      []*httpConn
	mu         sync.Mutex
	swaps      []float64
}

func runServe(ctx context.Context, rc runConfig, rep *report) error {
	sr := &serveRun{rc: rc, rep: rep}
	if !rc.trace {
		sr.cal = newCalibrator()
	}
	if rc.trace {
		sr.tr = newTracer()
	}
	if err := sr.prepare(ctx); err != nil {
		return err
	}
	// The generations are inputs prepared before the run: the workload's
	// peak resident memory starts with the server's set-up.
	if err := resetPeakRSS(); err != nil {
		rep.note("peak RSS could not be reset after preparing the generations: " + err.Error())
	}
	// Fitting the generations leaves free heap pages the runtime keeps
	// resident even after returning what it can: 0.1 MB in some runs,
	// 2–3 MB in others, at random. A server that loads its models rather
	// than fitting them has none, so they are not counted.
	sr.retainedMB = retainedFreeHeapMB()

	var setups []float64
	for i := 0; i < serveSetups; i++ {
		t0 := time.Now()
		s, err := startServer(sr.gens[0], sr.bodies[sr.ones[0]].json, sr.tr, fmt.Sprintf("setup-%d", i))
		rep.gates.check(err)
		if err != nil {
			return err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if i < serveSetups-1 {
			s.stop()
		} else {
			sr.s = s
		}
	}
	defer sr.s.stop()
	rep.set("setup_s", "s", median(setups), len(setups), "median of model.Load → Registry.Load → serve.New → listen → first 200")
	for c := 0; c < clientConns; c++ {
		conn, err := dialConn(sr.s.addr, predictPath)
		if err != nil {
			return err
		}
		defer conn.close()
		sr.conns = append(sr.conns, conn)
	}

	stop := make(chan struct{})
	swapped := make(chan struct{})
	go sr.swapper(stop, swapped)
	err := sr.measure(ctx)
	close(stop)
	<-swapped
	if err != nil {
		return err
	}
	if !rc.trace {
		// The generations are fitted again after the measured phase, so
		// fit_p50_s samples the start and the end of the run, not one
		// moment of it.
		if err := sr.fitGenerations(ctx); err != nil {
			return err
		}
		rep.calibration(sr.cal)
		rep.setRef("fit_p50_s", "s", median(sr.walls), sr.cal.fitFactor(), len(sr.walls),
			fmt.Sprintf("the fits that publish generations A and B, %d each before and %d each after the measured phase", genFits, genFits))
	}
	sr.mu.Lock()
	swaps := append([]float64(nil), sr.swaps...)
	sr.mu.Unlock()
	if rc.trace {
		rep.set("serve.swap_ms", "ms", mean(swaps), len(swaps), "mean Registry.Load hot swap")
		rep.set("serve.swaps", "count", float64(len(swaps)), len(swaps), "swaps during the measured phase")
		sr.layers()
		self, count := SelfTimes(sr.tr.Spans())
		for name, d := range self {
			rep.SelfTimesMs = append(rep.SelfTimesMs, selfTime{Name: name, Spans: count[name], Ms: ms(d)})
		}
		return sr.tr.WriteJSONL(spanPath(rc, rep.Workload))
	}
	return nil
}

// prepare fits generations A and B (default fits on two biometric data
// seeds, checked against sequential references), and builds the seeded
// pool of request bodies with each generation's offline answer.
func (sr *serveRun) prepare(ctx context.Context) error {
	rc, rep := sr.rc, sr.rep
	n := pick(rc.smoke, 60, 400)
	for g := range sr.gens {
		in, err := encode(fmt.Sprintf("gen-%d", g), biometric(n, subSeed(generationSeed, 3, g)))
		if err != nil {
			return err
		}
		sr.genIn[g] = in
		// Each generation is fitted once to warm up; the fits are
		// deterministic, so the timed repeats only add fit_p50_s samples.
		// A traced run follows a second, warm fit.
		out, err := fitOnce(ctx, in, nil, false, nil, "", nil)
		if err == nil && rc.trace {
			out, err = fitOnce(ctx, in, nil, true, sr.tr, fmt.Sprintf("gen-%d", g), nil)
		}
		if err != nil {
			return err
		}
		watch := rc.trace && g == 0
		ref, err := fitOnce(ctx, in, []iotml.Option{iotml.WithParallelism(1)}, watch, nil, "", nil)
		if err != nil {
			return fmt.Errorf("reference fit: %w", err)
		}
		sr.sel[g] = selection{ref.best, ref.score}
		rep.gates.check(gateSelection(selection{out.best, out.score}, sr.sel[g]))
		d, err := parse(in)
		if err != nil {
			return err
		}
		art, _, err := gateArtifact(out.art, d.X)
		rep.gates.check(err)
		if err != nil {
			return err
		}
		sr.gens[g] = generation{bytes: out.art, art: art}
		if watch {
			rep.set("dataset.read_csv_ms", "ms", ms(out.readCSV), 1, "generation A fit")
			rep.set("mkl.seed_ms", "ms", ms(out.seed), 1, "generation A fit")
			rep.set("mkl.search_ms", "ms", ms(out.search), 1, "generation A fit")
			rep.set("mkl.candidates", "count", float64(len(out.prog.cands)), 1, "generation A fit")
			rep.set("mkl.candidate_ms", "ms", ms(out.search)/float64(max(len(out.prog.cands), 1)), 1, "generation A fit")
			rep.set("core.deploy_ms", "ms", ms(out.deploy), 1, "generation A fit")
			rep.set("core.alloc_mb_per_fit", "MB", float64(out.allocated)/(1<<20), 1, "generation A fit")
			rep.set("model.save_ms", "ms", ms(out.save), 1, "generation A fit")
			rep.set("model.artifact_kb", "KB", float64(len(out.art))/1024, 1, "generation A fit")
			rep.set("parsearch.speedup", "ratio", ms(ref.search)/ms(out.search), 1,
				"sequential search_ms over default search_ms, generation A")
			// The CV objective's layers, replayed on the candidates the
			// sequential fit of generation A visited.
			st := replayKernel(d, ref.prog.cands, false)
			replayMetrics(rep, "kernel", st, ms(ref.search), false)
			kernelCacheMetrics(rep, st)
			rep.set("kernelmachine.train_ms", "ms", ms(st.train), st.candidates*4, "ridge training of every fold of every candidate")
		}
	}
	if !rc.trace {
		if err := sr.fitGenerations(ctx); err != nil {
			return err
		}
	}

	probe := biometric(pick(rc.smoke, 64, 256), subSeed(rc.seed, 4, 0))
	preds := [2]*model.Predictor{}
	for g := range sr.gens {
		p, err := model.NewPredictor(sr.gens[g].art)
		if err != nil {
			return err
		}
		preds[g] = p
	}
	rng := stats.NewRNG(subSeed(rc.seed, 4, 1))
	add := func(rows [][]float64) error {
		b, err := json.Marshal(serve.PredictRequest{Instances: rows})
		if err != nil {
			return err
		}
		bd := body{json: b, rows: len(rows)}
		for g := range preds {
			if bd.exp[g], err = expect(preds[g], rows); err != nil {
				return err
			}
		}
		sr.bodies = append(sr.bodies, bd)
		return nil
	}
	for i := 0; i < pick(rc.smoke, 40, 200); i++ {
		r := rng.Intn(len(probe.X))
		sr.ones = append(sr.ones, len(sr.bodies))
		if err := add(probe.X[r : r+1]); err != nil {
			return err
		}
	}
	for i := 0; i < pick(rc.smoke, 4, 20); i++ {
		r := rng.Intn(len(probe.X) - batchRows + 1)
		sr.multi = append(sr.multi, len(sr.bodies))
		if err := add(probe.X[r : r+batchRows]); err != nil {
			return err
		}
	}
	if err := gateSelfCheck(selection{"x", 1}, sr.gens[0].bytes, probe.X[:4], sr.bodies[0].exp[0]); err != nil {
		rep.selfCheckFailed(err)
	}
	return nil
}

// fitGenerations times genFits fits of each generation from a collected
// heap, gating each selection against the generation's reference.
func (sr *serveRun) fitGenerations(ctx context.Context) error {
	for g, in := range sr.genIn {
		for r := 0; r < genFits; r++ {
			runtime.GC()
			out, err := fitOnce(ctx, in, nil, false, nil, "", nil)
			if err != nil {
				return err
			}
			sr.rep.gates.check(gateSelection(selection{out.best, out.score}, sr.sel[g]))
			sr.walls = append(sr.walls, out.wall.Seconds())
			sr.cal.pause()
		}
	}
	return nil
}

// swapper hot-swaps the served model between the generations every
// swapEvery until stop closes, timing each Registry.Load.
func (sr *serveRun) swapper(stop <-chan struct{}, done chan<- struct{}) {
	defer close(done)
	t := time.NewTicker(swapEvery)
	defer t.Stop()
	next := 1
	for i := 0; ; i++ {
		select {
		case <-stop:
			return
		case <-t.C:
		}
		t0 := time.Now()
		err := sr.s.reg.Load(modelID, sr.gens[next].art)
		t1 := time.Now()
		sr.tr.Add("serve.swap", fmt.Sprintf("swap-%d", i), 0, t0, t1)
		sr.mu.Lock()
		sr.rep.gates.check(err)
		sr.swaps = append(sr.swaps, ms(t1.Sub(t0)))
		sr.mu.Unlock()
		next = 1 - next
	}
}

// phase runs one open-loop phase of Poisson arrivals at rate for dur and
// checks every answer. With tr set, each request records spans.
func (sr *serveRun) phase(name string, rate float64, dur time.Duration, stream int, tr *Tracer) phaseStats {
	rng := stats.NewRNG(subSeed(sr.rc.seed, 5, stream))
	due := poissonSchedule(rng, rate, dur)
	pickBody := make([]int, len(due))
	for i := range pickBody {
		if rng.Float64() < batchShare {
			pickBody[i] = sr.multi[rng.Intn(len(sr.multi))]
		} else {
			pickBody[i] = sr.ones[rng.Intn(len(sr.ones))]
		}
	}
	start := time.Now().Add(10 * time.Millisecond)
	lat, lag, errs := openLoop(start, due, len(sr.conns), func(c, i int) error {
		b := &sr.bodies[pickBody[i]]
		sent := time.Now()
		status, resp, err := sr.conns[c].post(b.json)
		if err == nil {
			err = gateResponse(status, resp, b.exp[0], b.exp[1])
		}
		if tr != nil {
			op := fmt.Sprintf("%s-req-%d", name, i)
			at := start.Add(due[i])
			root := tr.Reserve("request", op, 0, at)
			tr.Add("client.wait", op, root, at, sent)
			end := time.Now()
			tr.Add("http.exchange", op, root, sent, end)
			tr.Finish(root, end)
		}
		if err != nil {
			return fmt.Errorf("%s request %d: %w", name, i, err)
		}
		return nil
	})
	failed := make([]bool, len(due))
	sr.mu.Lock()
	for i, err := range errs {
		failed[i] = err != nil
		sr.rep.gates.check(err)
	}
	sr.mu.Unlock()
	ps := summarize(name, rate, lat, lag, failed)
	sr.rep.Phases = append(sr.rep.Phases, ps)
	return ps
}

// measure runs the nominal phase and, untraced, the rate ladder in the rest
// of the run; traced, it runs the nominal phase twice, untraced then
// traced, for the overhead.
func (sr *serveRun) measure(ctx context.Context) error {
	rc, rep := sr.rc, sr.rep
	nominal := time.Duration(nominalShare * float64(rc.seconds))
	if !rc.smoke {
		nominal = max(nominal, minNominal)
	}
	snap0, _ := sr.s.srv.SnapshotModel(modelID)
	if rc.trace {
		plain := sr.phase("nominal", nominalRate, nominal, 0, nil)
		traced := sr.phase("nominal-traced", nominalRate, nominal, 1, sr.tr)
		snap1, _ := sr.s.srv.SnapshotModel(modelID)
		sr.batchMetrics(snap0, snap1)
		rep.set("client.lag_p99_ms", "ms", max(plain.LagP99ms, traced.LagP99ms), plain.Samples+traced.Samples, "generator lateness against the schedule")
		rep.set("trace.overhead_pct", "%", 100*(traced.P50ms/plain.P50ms-1), plain.Samples+traced.Samples, "traced against untraced nominal p50")
		return nil
	}
	// Peak memory is read over the nominal phase, in windows: the
	// ladder's path, and so its load, follows how fast the machine is, and
	// one late collection in one window does not decide the figure.
	stopPeaks := make(chan struct{})
	peaks := make(chan peakWindows, 1)
	go watchPeaks(peakWindow, stopPeaks, peaks)
	nom := sr.phase("nominal", nominalRate, nominal, 0, nil)
	close(stopPeaks)
	pw := <-peaks
	if pw.err != nil {
		return pw.err
	}
	rep.set("peak_rss_mb", "MB", median(pw.mb)-sr.retainedMB, len(pw.mb),
		fmt.Sprintf("median over %v windows of the nominal phase of each window's VmHWM, less %.2f MB of free heap left resident by the preparation", peakWindow, sr.retainedMB))
	rep.set("predict_p50_ms", "ms", nom.P50ms, nom.Samples, "due time to full response, nominal phase")
	if nom.P99ms >= 0 {
		rep.set("predict_p99_ms", "ms", nom.P99ms, nom.Samples, "due time to full response, nominal phase")
	} else {
		rep.set("predict_p99_ms", "ms", nom.TailMs, nom.Samples, fmt.Sprintf("p%g: too few samples for p99", 100*nom.TailQ))
	}

	// The rate ladder: a fixed geometric grid, entered at a share of the
	// capacity the nominal phase implies (connections / median latency).
	// It climbs 10% at a time while steps pass (or descends while they
	// fail), then probes the ≈4.9% point between the last pass and the
	// first failure. Once the rest of the run is spent it stops, except
	// that it keeps descending until some step has passed.
	budget := rc.seconds - nominal
	est := float64(len(sr.conns)) * 1000 / nom.P50ms
	k := int(math.Floor(math.Log(ladderStartQ*est/gridBase) / math.Log(gridStep)))
	var steps []phaseStats
	var spent time.Duration
	step := func(k int) bool {
		rate := gridBase * math.Pow(gridStep, float64(k))
		dur := time.Duration(float64(stepSamples) / rate * float64(time.Second))
		if rc.smoke {
			dur = budget / ladderSteps
		}
		st := sr.phase(fmt.Sprintf("ladder-%d", len(steps)), rate, dur, 2+len(steps), nil)
		spent += dur
		steps = append(steps, st)
		return st.Pass
	}
	first := step(k)
	dir := 2
	if !first {
		dir = -2
	}
	for len(steps) < ladderSteps-1 && k+dir >= 0 && (spent < budget || maxRate(steps) == 0) {
		k += dir
		if step(k) != first {
			if spent < budget {
				step(k - dir/2)
			}
			break
		}
	}
	top := maxRate(steps)
	if top == 0 {
		rep.note("no ladder step met the limits")
	}
	samples, capped := 0, false
	for _, s := range steps {
		samples += s.Samples
		capped = capped || (!s.Pass && s.Rate > top)
	}
	if top > 0 && !capped {
		rep.note("the ladder ran out of time before a step failed: max_rate_rps is a lower bound")
	}
	rep.set("max_rate_rps", "1/s", top, samples, fmt.Sprintf("highest of %d ladder steps with p99 ≤ %gms, no failure, lag p99 ≤ %gms", len(steps), limitP99ms, limitLagP99ms))
	return nil
}

// batchMetrics reports the server's own batching counters over a phase.
func (sr *serveRun) batchMetrics(a, b serve.Metrics) {
	batches := float64(b.Batches - a.Batches)
	n := int(b.Batches - a.Batches)
	sr.rep.set("serve.batch_us_mean", "us", float64(b.TotalBatchMicros-a.TotalBatchMicros)/max(batches, 1), n, "Server.Snapshot delta: scoring time per batch")
	sr.rep.set("serve.batch_rows_mean", "count", float64(b.Instances-a.Instances)/max(batches, 1), n, "instances per batch")
	sr.rep.set("serve.requests_per_batch", "count", float64(b.Requests-a.Requests)/max(batches, 1), n, "requests per batch")
	sr.rep.set("serve.shed", "count", float64(b.Shed-a.Shed), int(b.Requests-a.Requests), "shed requests")
}

// layers measures the serving layers the benchmark can call directly:
// the model's load/predictor/scoring costs and the JSON codec on the
// request pool, weighted by the traffic mix.
func (sr *serveRun) layers() {
	rows := make([][]float64, 0, batchRows)
	for _, i := range sr.multi[:1] {
		var req serve.PredictRequest
		_ = json.Unmarshal(sr.bodies[i].json, &req)
		rows = append(rows, req.Instances...)
	}
	modelCosts(sr.rep, sr.gens[0].art, rows)
	decode := func(idx []int) float64 {
		const reps = 20
		t0 := time.Now()
		for r := 0; r < reps; r++ {
			for _, i := range idx {
				dec := json.NewDecoder(bytes.NewReader(sr.bodies[i].json))
				dec.DisallowUnknownFields()
				var req serve.PredictRequest
				if err := dec.Decode(&req); err != nil {
					sr.rep.gates.check(err)
				}
			}
		}
		return us(time.Since(t0)) / float64(reps*len(idx))
	}
	encode := func(idx []int) float64 {
		const reps = 20
		t0 := time.Now()
		for r := 0; r < reps; r++ {
			for _, i := range idx {
				e := sr.bodies[i].exp[0]
				_ = json.NewEncoder(io.Discard).Encode(serve.PredictResponse{Scores: e.scores, Labels: e.labels})
			}
		}
		return us(time.Since(t0)) / float64(reps*len(idx))
	}
	n := len(sr.ones) + len(sr.multi)
	sr.rep.set("serve.decode_us", "us", (1-batchShare)*decode(sr.ones)+batchShare*decode(sr.multi), n, "PredictRequest decode per request, traffic mix")
	sr.rep.set("serve.encode_us", "us", (1-batchShare)*encode(sr.ones)+batchShare*encode(sr.multi), n, "PredictResponse encode per request, traffic mix")
}
