package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedianAndPercentile(t *testing.T) {
	xs := []float64{10, 1, 4, 7}
	if got := median(xs); !near(got, 5.5) {
		t.Errorf("median = %v, want 5.5", got)
	}
	if got := median([]float64{3, 9, 1}); got != 3 {
		t.Errorf("odd median = %v, want 3", got)
	}
	if xs[0] != 10 {
		t.Error("median reordered its input")
	}
	seq := make([]float64, 101)
	for i := range seq {
		seq[i] = float64(i)
	}
	if got := percentile(seq, 90); got != 90 {
		t.Errorf("p90 of 0..100 = %v, want 90", got)
	}
	if got := percentile([]float64{0, 10}, 90); !near(got, 9) {
		t.Errorf("p90 of {0,10} = %v, want 9 (linear interpolation)", got)
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of nothing should be NaN")
	}
}

func TestSelfTimesSubtractNestedChildren(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100 * ms},
		{ID: 2, Parent: 1, Name: "a", Start: 10 * ms, End: 40 * ms},
		{ID: 3, Parent: 1, Name: "b", Start: 30 * ms, End: 60 * ms}, // overlaps a
		{ID: 4, Parent: 2, Name: "a.inner", Start: 20 * ms, End: 25 * ms},
		{ID: 5, Parent: 1, Name: "late", Start: 90 * ms, End: 120 * ms}, // runs past its parent
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{
		1: 100*ms - 50*ms - 10*ms, // a∪b covers 10..60, late covers 90..100
		2: 30*ms - 5*ms,
		3: 30 * ms,
		4: 5 * ms,
		5: 30 * ms,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self[%d] = %v, want %v", id, self[id], w)
		}
	}
}

func TestWorkloadSpansWinOverProbeSpans(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "store.warm_load", Phase: phaseProbe, End: 1},
		{ID: 2, Name: "store.warm_load", Phase: phaseWorkload, End: 5},
		{ID: 3, Name: "store.put", Phase: phaseProbe, End: 7},
	}
	ls := samplesByName(spans)
	if got := ls["store.warm_load"].Dur; len(got) != 1 || got[0] != 5e-9 {
		t.Errorf("warm_load samples = %v, want the workload's only", got)
	}
	if got := ls["store.put"].Dur; len(got) != 1 || got[0] != 7e-9 {
		t.Errorf("put samples = %v, want the probe's", got)
	}
}

func TestDisabledTracerRecordsNothing(t *testing.T) {
	tr := newTracer(false)
	tr.end(tr.begin("x", 0, ""), 1)
	tr.record("y", 0, "", 0, 1, 0)
	if n := len(tr.snapshot()); n != 0 {
		t.Errorf("disabled tracer kept %d spans", n)
	}
	on := newTracer(true)
	p := on.begin("parent", 0, "r")
	on.end(on.begin("child", p, "r"), 3)
	on.end(p, 0)
	got := on.snapshot()
	if len(got) != 2 || got[1].Parent != got[0].ID || got[1].Work != 3 || got[0].Phase != phaseWorkload {
		t.Errorf("spans = %+v", got)
	}
}
