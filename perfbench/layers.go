package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/internal/model"
)

// layers reports the per-layer metrics of a traced fit run: means over the
// traced fits, the replays of one dataset's visited candidates, the fleet
// wrapper's counters, and the fitted model's predict costs.
func (f *fitRun) layers(ctx context.Context, outs []fitOutcome, traced, untraced []float64, pool []input, fsDelta fleetCounters, last *model.Artifact, lastRows [][]float64) error {
	rep := f.rep
	var watched []fitOutcome
	for _, o := range outs {
		if o.prog != nil {
			watched = append(watched, o)
		}
	}
	n := len(watched)
	avg := func(get func(fitOutcome) float64) float64 {
		t := 0.0
		for _, o := range watched {
			t += get(o)
		}
		return t / float64(max(n, 1))
	}
	rep.set("dataset.read_csv_ms", "ms", avg(func(o fitOutcome) float64 { return ms(o.readCSV) }), n, "mean per traced fit")
	rep.set("mkl.seed_ms", "ms", avg(func(o fitOutcome) float64 { return ms(o.seed) }), n, "Fit call to seed-selected")
	rep.set("mkl.search_ms", "ms", avg(func(o fitOutcome) float64 { return ms(o.search) }), n, "seed-selected to search-finished")
	rep.set("mkl.candidates", "count", avg(func(o fitOutcome) float64 { return float64(len(o.prog.cands)) }), n, "candidate-evaluated events per fit")
	rep.set("mkl.candidate_ms", "ms", avg(func(o fitOutcome) float64 { return ms(o.search) / float64(max(len(o.prog.cands), 1)) }), n, "search wall time per candidate")
	rep.set("core.deploy_ms", "ms", avg(func(o fitOutcome) float64 { return ms(o.deploy) }), n, "FitResult.Artifact")
	rep.set("core.alloc_mb_per_fit", "MB", avg(func(o fitOutcome) float64 { return float64(o.allocated) / (1 << 20) }), n, "heap bytes allocated per fit (fit-dist: workers included)")
	rep.set("model.save_ms", "ms", avg(func(o fitOutcome) float64 { return ms(o.save) }), n, "Artifact.Save")
	rep.set("model.artifact_kb", "KB", avg(func(o fitOutcome) float64 { return float64(len(o.art)) / 1024 }), n, "saved artifact size")
	if len(untraced) > 0 && len(traced) > 0 {
		rep.set("trace.overhead_pct", "%", 100*(median(traced)/median(untraced)-1), len(traced)+len(untraced),
			"median traced fit against median untraced fit of the same run")
	}

	// Replays: the sequential reference fit of the first measured dataset
	// gives the visited candidates and the sequential search time.
	in := outs[0].in
	if len(pool) > 0 {
		in = pool[0]
	}
	opts, err := f.w.referenceOptions(1)
	if err != nil {
		return err
	}
	seq, err := fitOnce(ctx, in, opts, true, nil, "", nil)
	if err != nil {
		return fmt.Errorf("sequential replay fit: %w", err)
	}
	d, err := parse(in)
	if err != nil {
		return err
	}
	if !f.w.dist && outs[0].prog != nil && outs[0].in.name == in.name {
		rep.set("parsearch.speedup", "ratio", ms(seq.search)/ms(outs[0].search), 1,
			"sequential search_ms over default search_ms, same dataset")
	}
	seqMs := ms(seq.search)
	if f.w.dist {
		st := replayEngine(d, seq.prog.cands)
		replayMetrics(rep, "engine", st, seqMs, true)
	} else {
		st := replayKernel(d, seq.prog.cands, true)
		replayMetrics(rep, "kernel", st, seqMs, true)
		kernelCacheMetrics(rep, st)
	}

	if f.w.dist {
		fits := float64(len(outs))
		rep.set("distsearch.install_ms", "ms", ms(fsDelta.installTime)/float64(max(fsDelta.installs, 1)), fsDelta.installs, "mean job install")
		rep.set("distsearch.installs", "count", float64(fsDelta.installs)/fits, len(outs), "installs per fit")
		rep.set("distsearch.job_kb", "KB", float64(fsDelta.jobBytes)/1024/float64(max(fsDelta.installs, 1)), fsDelta.installs, "mean job body")
		rep.set("distsearch.shard_ms", "ms", ms(fsDelta.shardTime)/float64(max(fsDelta.shards, 1)), fsDelta.shards, "mean shard scoring request")
		rep.set("distsearch.shards", "count", float64(fsDelta.shards)/fits, len(outs), "shards per fit")
		busy, search := 0.0, 0.0
		shardMs := map[string]float64{}
		for _, s := range f.tr.Spans() {
			if s.Name == "distsearch.shard" {
				shardMs[s.Op] += ms(s.End - s.Start)
			}
		}
		retries, fallbacks := 0, 0
		for k, o := range outs {
			if o.prog == nil {
				continue
			}
			busy += shardMs[fmt.Sprintf("fit-%d", k)]
			search += ms(o.search)
			retries += o.prog.retries + o.prog.redispatches
			fallbacks += o.prog.fallbacks
		}
		rep.set("distsearch.worker_busy_ratio", "ratio", busy/(search*fleetWorkers), n, "shard time over search time × workers")
		rep.set("distsearch.retries", "count", float64(retries), n, "shard-retried + shard-redispatched events")
		rep.set("distsearch.fallbacks", "count", float64(fallbacks), n, "dist-fallback events")
	}
	if last != nil {
		modelCosts(rep, last, lastRows)
	}
	f.selfTimes()
	return f.tr.WriteJSONL(spanPath(f.rc, f.rep.Workload))
}

func spanPath(rc runConfig, workload string) string {
	return fmt.Sprintf("%s/spans-%s-seed%d.jsonl", rc.out, workload, rc.seed)
}

// replayMetrics reports one replay's isolated-layer costs under prefix.
func replayMetrics(rep *report, prefix string, st replayStats, seqSearchMs float64, alignment bool) {
	note := fmt.Sprintf("isolated-layer replay of %d candidates", st.candidates)
	rep.set(prefix+".block_build_ms", "ms", ms(st.blockBuild), st.blocksBuilt, note)
	rep.set(prefix+".assemble_ms", "ms", ms(st.assemble), st.candidates, note)
	if alignment {
		rep.set(prefix+".center_ms", "ms", ms(st.center), st.candidates, note)
		rep.set(prefix+".align_ms", "ms", ms(st.align), st.candidates, note)
	}
	rep.set(prefix+".replay_coverage", "ratio", ms(st.total())/seqSearchMs, st.candidates,
		"replay total over sequential search_ms")
	if st.matches != st.candidates {
		rep.note(fmt.Sprintf("%s replay reproduced %d of %d candidate scores bit for bit", prefix, st.matches, st.candidates))
	}
}

// kernelCacheMetrics reports how the f64 replay used kernel.BlockGramCache.
func kernelCacheMetrics(rep *report, st replayStats) {
	rep.set("kernel.blocks_built", "count", float64(st.blocksBuilt), st.candidates, "distinct blocks built by the replay")
	rep.set("kernel.block_hit_ratio", "ratio", float64(st.blockHits)/float64(max(st.blockHits+st.blocksBuilt, 1)), st.blockHits+st.blocksBuilt, "block lookups served by the cache")
	rep.set("kernel.cache_mb", "MB", float64(st.cacheBytes)/(1<<20), 1, "BlockGramCache.Bytes after the replay")
}

// selfTimes folds the recorded spans into per-layer self times.
func (f *fitRun) selfTimes() {
	self, count := SelfTimes(f.tr.Spans())
	for name, d := range self {
		f.rep.SelfTimesMs = append(f.rep.SelfTimesMs, selfTime{Name: name, Spans: count[name], Ms: ms(d)})
	}
}

// modelCosts measures the model layer on art: Load and NewPredictor
// (median of several), and steady-state ScoresInto on 1- and 32-row
// batches with its allocations per call.
func modelCosts(rep *report, art *model.Artifact, rows [][]float64) {
	var buf bytes.Buffer
	if err := art.Save(&buf); err != nil {
		rep.note("model costs skipped: " + err.Error())
		return
	}
	const reps = 5
	var loads, preds []float64
	for i := 0; i < reps; i++ {
		t0 := time.Now()
		a, err := model.Load(bytes.NewReader(buf.Bytes()))
		t1 := time.Now()
		if err != nil {
			rep.note("model costs skipped: " + err.Error())
			return
		}
		if _, err := model.NewPredictor(a); err != nil {
			rep.note("model costs skipped: " + err.Error())
			return
		}
		loads = append(loads, ms(t1.Sub(t0)))
		preds = append(preds, ms(time.Since(t1)))
	}
	rep.set("model.load_ms", "ms", median(loads), reps, "model.Load of the saved bytes")
	rep.set("model.new_predictor_ms", "ms", median(preds), reps, "model.NewPredictor")
	p, err := model.NewPredictor(art)
	if err != nil {
		return
	}
	batch := rows[:min(32, len(rows))]
	var dst []float64
	one := func(i int) { dst, _ = p.ScoresInto(dst, rows[i%len(rows):i%len(rows)+1]) }
	many := func(int) { dst, _ = p.ScoresInto(dst, batch) }
	for i := 0; i < 50; i++ {
		one(i)
		many(i)
	}
	timeIt := func(iters int, fn func(int)) (perCall float64, allocs float64) {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			fn(i)
		}
		el := time.Since(t0)
		runtime.ReadMemStats(&m1)
		return us(el) / float64(iters), float64(m1.Mallocs-m0.Mallocs) / float64(iters)
	}
	u1, a1 := timeIt(2000, one)
	u32, a32 := timeIt(200, many)
	rep.set("model.score_us_row1", "us", u1, 2000, "steady-state Predictor.ScoresInto, 1 row")
	rep.set("model.score_us_row32", "us", u32, 200, fmt.Sprintf("steady-state Predictor.ScoresInto, %d rows", len(batch)))
	rep.set("model.score_allocs", "count", max(a1, a32), 2200, "allocations per ScoresInto call (larger of the two batch sizes)")
}
