package main

import (
	"testing"
	"time"
)

func TestPercentileRuleNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n     int
		wantQ float64
		ok    bool
	}{
		{1000, 0.99, true}, // 10 beyond p99
		{999, 0.95, true},  // p99 would leave 9
		{10000, 0.999, true},
		{500, 0.95, true},
		{100, 0.9, true},
		{20, 0.5, true},
		{19, 0, false},
	}
	for _, c := range cases {
		s := make([]float64, c.n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		q, v, ok := tailOf(s)
		if ok != c.ok || q != c.wantQ {
			t.Errorf("n=%d: tail q=%v ok=%v, want q=%v ok=%v", c.n, q, ok, c.wantQ, c.ok)
			continue
		}
		if ok && c.n-int(v) < minBeyond {
			t.Errorf("n=%d: p%g=%v leaves %d samples beyond it", c.n, 100*q, v, c.n-int(v))
		}
	}
	if !supports(1000, 0.99) || supports(999, 0.99) {
		t.Error("p99 must need exactly 1000 samples")
	}
}

func TestMedianAndPercentile(t *testing.T) {
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
	s := sortedCopy([]float64{5, 1, 4, 2, 3})
	if p := percentile(s, 0.5); p != 3 {
		t.Errorf("p50 = %v, want 3 (nearest rank)", p)
	}
	if p := percentile(s, 1); p != 5 {
		t.Errorf("p100 = %v, want 5", p)
	}
}

func step(rate float64, samples, failed int, p99, lag float64) phaseStats {
	ps := phaseStats{Rate: rate, Samples: samples, Attempted: samples, Failed: failed, P99ms: p99, LagP99ms: lag}
	ps.Pass = meets(ps)
	return ps
}

func TestLadderSelectsHighestStepMeetingEveryLimit(t *testing.T) {
	steps := []phaseStats{
		step(300, 1200, 0, 10, 2),
		step(330, 1200, 0, 24.9, 3),
		step(363, 1200, 0, 25.1, 3), // p99 over the limit
		step(346, 1200, 1, 12, 2),   // one failed request
		step(380, 1200, 0, 11, 26),  // generator lag over the limit
		step(400, 999, 0, 5, 1),     // too few samples to quote a p99
	}
	if got := maxRate(steps); got != 330 {
		t.Fatalf("maxRate = %v, want 330", got)
	}
	for i, want := range []bool{true, true, false, false, false, false} {
		if steps[i].Pass != want {
			t.Errorf("step %d (rate %v) pass = %v, want %v", i, steps[i].Rate, steps[i].Pass, want)
		}
	}
	if got := maxRate(steps[2:]); got != 0 {
		t.Errorf("maxRate with no passing step = %v, want 0", got)
	}
}

func TestSummarizeCountsFailuresAsMissingTheLimit(t *testing.T) {
	lat := make([]time.Duration, 1000)
	lag := make([]time.Duration, 1000)
	failed := make([]bool, 1000)
	for i := range lat {
		lat[i] = time.Millisecond
	}
	ps := summarize("x", 100, lat, lag, failed)
	if !ps.Pass || ps.P99ms != 1 {
		t.Fatalf("clean phase: pass=%v p99=%v, want pass at 1ms", ps.Pass, ps.P99ms)
	}
	for i := 0; i < 11; i++ {
		failed[i] = true
	}
	ps = summarize("x", 100, lat, lag, failed)
	if ps.Pass || ps.Failed != 11 || ps.P99ms != -1 {
		t.Fatalf("phase with 11 failures: pass=%v failed=%d p99=%v, want fail, 11, unquotable (+Inf)", ps.Pass, ps.Failed, ps.P99ms)
	}
}
