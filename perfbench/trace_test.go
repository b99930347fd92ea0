package main

import (
	"testing"
	"time"
)

func TestSelfTimeSubtractsUnionOfClippedChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []Span{
		{ID: 1, Name: "fit", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "a", Start: 10 * ms, End: 30 * ms},
		{ID: 3, Parent: 1, Name: "a", Start: 20 * ms, End: 50 * ms},  // overlaps the first child
		{ID: 4, Parent: 1, Name: "b", Start: 90 * ms, End: 120 * ms}, // runs past its parent
		{ID: 5, Parent: 3, Name: "c", Start: 25 * ms, End: 35 * ms},  // grandchild
		{ID: 6, Name: "fit", Start: 200 * ms, End: 210 * ms},         // childless root
	}
	self, count := SelfTimes(spans)
	want := map[string]time.Duration{
		"fit": (100-40-10)*ms + 10*ms, // children cover [10,50] and [90,100]
		"a":   20*ms + (30-10)*ms,     // the second a loses its grandchild's 10ms
		"b":   30 * ms,
		"c":   10 * ms,
	}
	for name, w := range want {
		if self[name] != w {
			t.Errorf("self(%s) = %v, want %v", name, self[name], w)
		}
	}
	if count["fit"] != 2 || count["a"] != 2 {
		t.Errorf("counts = %v", count)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *Tracer
	id := tr.Reserve("x", "op", 0, time.Now())
	tr.Finish(id, time.Now())
	if id != 0 || tr.Spans() != nil {
		t.Fatal("a nil tracer must be a no-op")
	}
	tr = newTracer()
	root := tr.Reserve("root", "op", 0, time.Now())
	tr.Add("child", "op", root, time.Now(), time.Now())
	tr.Finish(root, time.Now())
	s := tr.Spans()
	if len(s) != 2 || s[1].Parent != root || s[0].End < s[0].Start {
		t.Fatalf("spans = %+v", s)
	}
}
