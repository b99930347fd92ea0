// Command perfbench is the repository's whole-run benchmark: it drives the
// iotml fit and serving paths from generated inputs, checks every output,
// and prints end-to-end metrics (untraced runs) or per-layer metrics
// (traced runs). See README.md for the workloads and metric definitions.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// Workload names, in the order "all" runs them.
var workloads = []string{"fit-align", "fit-dist", "serve-mixed"}

const (
	setupReps = 5 // set-ups per run; setup_s is their median
	minFits   = 3 // a fit run measures at least this many fits
)

// metricSpec names one contract metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd are the metrics an untraced run puts on its result line; they
// must match BENCHMARK.json's end_to_end list. Every run also prints
// predict_p99_ms, max_rate_rps and error_rate with the others, but they are
// not bounded: on a shared 2-vCPU machine their run-to-run spread is wider
// than any bound the benchmark may set (see README.md).
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"fit_p50_s", "s"},
	{"predict_p50_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics a traced run reports; they must match
// BENCHMARK.json's per_layer list. A layer a workload never calls reads 0.
var perLayer = []metricSpec{
	{"dataset.read_csv_ms", "ms"},
	{"mkl.seed_ms", "ms"},
	{"mkl.search_ms", "ms"},
	{"mkl.candidates", "count"},
	{"mkl.candidate_ms", "ms"},
	{"parsearch.speedup", "ratio"},
	{"kernel.block_build_ms", "ms"},
	{"kernel.blocks_built", "count"},
	{"kernel.block_hit_ratio", "ratio"},
	{"kernel.cache_mb", "MB"},
	{"kernel.assemble_ms", "ms"},
	{"kernel.center_ms", "ms"},
	{"kernel.align_ms", "ms"},
	{"kernelmachine.train_ms", "ms"},
	{"kernel.replay_coverage", "ratio"},
	{"engine.block_build_ms", "ms"},
	{"engine.assemble_ms", "ms"},
	{"engine.center_ms", "ms"},
	{"engine.align_ms", "ms"},
	{"engine.replay_coverage", "ratio"},
	{"core.deploy_ms", "ms"},
	{"core.alloc_mb_per_fit", "MB"},
	{"model.save_ms", "ms"},
	{"model.artifact_kb", "KB"},
	{"model.load_ms", "ms"},
	{"model.new_predictor_ms", "ms"},
	{"model.score_us_row1", "us"},
	{"model.score_us_row32", "us"},
	{"model.score_allocs", "count"},
	{"serve.decode_us", "us"},
	{"serve.encode_us", "us"},
	{"serve.batch_us_mean", "us"},
	{"serve.batch_rows_mean", "count"},
	{"serve.requests_per_batch", "count"},
	{"serve.shed", "count"},
	{"serve.swap_ms", "ms"},
	{"serve.swaps", "count"},
	{"client.lag_p99_ms", "ms"},
	{"distsearch.install_ms", "ms"},
	{"distsearch.installs", "count"},
	{"distsearch.job_kb", "KB"},
	{"distsearch.shard_ms", "ms"},
	{"distsearch.shards", "count"},
	{"distsearch.worker_busy_ratio", "ratio"},
	{"distsearch.retries", "count"},
	{"distsearch.fallbacks", "count"},
	{"distsearch.cached_job_share", "ratio"},
	{"trace.overhead_pct", "%"},
}

// runConfig is one invocation's settings.
type runConfig struct {
	seed    int64
	seconds time.Duration
	trace   bool
	smoke   bool
	out     string
}

func main() {
	workload := flag.String("workload", "", "fit-align | fit-dist | serve-mixed | all")
	seed := flag.Int64("seed", 1, "workload seed: every input is generated from it")
	seconds := flag.Float64("seconds", 10, "length of each measured phase")
	trace := flag.Int("trace", 0, "1 = traced run: per-layer metrics instead of end-to-end ones")
	smoke := flag.Bool("smoke", false, "tiny inputs, for a quick check that every workload runs")
	out := flag.String("out", ".bench_out", "directory for the detailed report and span files")
	flag.Parse()
	rc := runConfig{seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, smoke: *smoke, out: *out}
	names := []string{*workload}
	if *workload == "all" {
		names = workloads
	}
	for _, n := range names {
		if !known(n) {
			fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %s or all)\n", n, strings.Join(workloads, ", "))
			os.Exit(2)
		}
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	if err := os.MkdirAll(rc.out, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fp := machineFingerprint(rc.seed)
	var lines []map[string]any
	for _, n := range names {
		rep, err := runWorkload(context.Background(), n, rc, fp)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", n, err)
			os.Exit(1)
		}
		if err := rep.write(rc.out); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			os.Exit(1)
		}
		rep.print(os.Stdout)
		lines = append(lines, resultLine(rep, rc.trace))
	}
	last := lines[0]
	if len(lines) > 1 {
		last = mergeLines(names, lines)
	}
	b, err := json.Marshal(last)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

func known(name string) bool {
	for _, w := range workloads {
		if w == name {
			return true
		}
	}
	return false
}

// runWorkload runs one workload. Each workload resets the peak-RSS window
// before its measured phase, so one workload's peak cannot leak into
// another's.
func runWorkload(ctx context.Context, name string, rc runConfig, fp fingerprint) (*report, error) {
	rep := newReport(rc, name, fp)
	var err error
	if name == "serve-mixed" {
		err = runServe(ctx, rc, rep)
	} else {
		err = runFit(ctx, name, rc, rep)
	}
	if err != nil {
		return nil, err
	}
	if rc.trace {
		for _, m := range perLayer {
			if _, ok := rep.get(m.name); !ok {
				rep.set(m.name, m.unit, 0, 0, "layer not called by this workload")
			}
		}
	}
	rep.finish()
	return rep, nil
}

// resultLine is the one-line result the benchmark contract asks for.
func resultLine(rep *report, trace bool) map[string]any {
	specs := endToEnd
	if trace {
		specs = perLayer
	}
	metrics := map[string]any{}
	for _, s := range specs {
		m, ok := rep.get(s.name)
		if !ok {
			continue
		}
		metrics[s.name] = map[string]any{"value": m.Value, "unit": s.unit}
	}
	return map[string]any{"correct": rep.correct(), "attempted": max(rep.Attempted, 1),
		"failed": rep.Failed, "metrics": metrics}
}

// mergeLines folds the per-workload results of an "all" run into one
// line, prefixing each metric with its workload.
func mergeLines(names []string, lines []map[string]any) map[string]any {
	correct, attempted, failed := true, 0, 0
	metrics := map[string]any{}
	for i, l := range lines {
		correct = correct && l["correct"].(bool)
		attempted += l["attempted"].(int)
		failed += l["failed"].(int)
		for k, v := range l["metrics"].(map[string]any) {
			metrics[names[i]+"."+k] = v
		}
	}
	return map[string]any{"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
}

// write saves the detailed report as JSON under dir.
func (r *report) write(dir string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return fmt.Errorf("encoding report: %w", err)
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", r.Workload, r.Seed, boolInt(r.Trace))
	return os.WriteFile(filepath.Join(dir, name), b, 0o644)
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

// print writes the human-readable report: fingerprint, every metric with
// unit and sample count, phases, error rate and self times.
func (r *report) print(w *os.File) {
	fp := r.Fingerprint
	fmt.Fprintf(w, "# %s seed=%d trace=%v seconds=%g | cpu=%q nproc=%d GOMAXPROCS=%d %s commit=%s src=%.12s\n",
		r.Workload, r.Seed, r.Trace, r.Seconds, fp.CPU, fp.NProc, fp.GOMAXPROCS, fp.Go, fp.Commit, fp.SourceHash)
	for _, m := range r.Metrics {
		fmt.Fprintf(w, "%-30s %14.6g %-6s n=%-6d %s\n", m.Name, m.Value, m.Unit, m.Samples, m.Note)
	}
	fmt.Fprintf(w, "%-30s %14.6g %-6s n=%-6d failed %d of %d operations\n", "error_rate", r.ErrorRate, "ratio", r.Attempted, r.Failed, r.Attempted)
	for _, p := range r.Phases {
		fmt.Fprintf(w, "phase %-12s rate=%7.1f/s attempted=%d failed=%d p50=%.3fms p%g=%.3fms lag_p99=%.3fms pass=%v\n",
			p.Name, p.Rate, p.Attempted, p.Failed, p.P50ms, 100*p.TailQ, p.TailMs, p.LagP99ms, p.Pass)
	}
	for _, s := range r.SelfTimesMs {
		fmt.Fprintf(w, "self %-28s %12.3f ms over %d spans\n", s.Name, s.Ms, s.Spans)
	}
	for _, f := range r.Failures {
		fmt.Fprintln(w, "FAILED:", f)
	}
	if r.SelfCheck != "ok" {
		fmt.Fprintln(w, "GATE SELF-CHECK FAILED:", r.SelfCheck)
	}
	for _, n := range r.Notes {
		fmt.Fprintln(w, "note:", n)
	}
}
