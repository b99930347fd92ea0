package main

import (
	"testing"
	"time"

	"repro/internal/stats"
)

// A stalled connection must charge its stall to every request queued
// behind it: latency runs from the due time, not from the send.
func TestOpenLoopChargesStallFromDueTime(t *testing.T) {
	const n, gap, stall = 10, 5 * time.Millisecond, 60 * time.Millisecond
	due := make([]time.Duration, n)
	for i := range due {
		due[i] = time.Duration(i) * gap
	}
	do := func(c, i int) error {
		if i == 0 {
			time.Sleep(stall)
		}
		return nil
	}
	lat, lag, errs := openLoop(time.Now(), due, 1, do)
	for i := range lat {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		// Request i waits behind request 0 until stall has passed.
		want := stall - due[i]
		if lat[i] < want-2*time.Millisecond {
			t.Errorf("request %d: latency %v, want at least %v (queued behind the stall)", i, lat[i], want)
		}
		if lag[i] > 20*time.Millisecond {
			t.Errorf("request %d: generator lag %v; the generator must not wait for the connection", i, lag[i])
		}
	}

	// With a second connection the stall holds up only its own request.
	lat, _, _ = openLoop(time.Now(), due, 2, do)
	if lat[0] < stall {
		t.Errorf("stalled request latency %v < stall %v", lat[0], stall)
	}
	for i := 1; i < n; i++ {
		if lat[i] > stall/2 {
			t.Errorf("request %d on the free connection: latency %v", i, lat[i])
		}
	}
}

func TestPoissonScheduleIsSeededAndBounded(t *testing.T) {
	a := poissonSchedule(stats.NewRNG(7), 200, time.Second)
	b := poissonSchedule(stats.NewRNG(7), 200, time.Second)
	if len(a) != len(b) || len(a) < 140 || len(a) > 260 {
		t.Fatalf("schedules of %d and %d arrivals, want equal and near 200", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] || a[i] >= time.Second || (i > 0 && a[i] < a[i-1]) {
			t.Fatalf("arrival %d: %v vs %v", i, a[i], b[i])
		}
	}
}
