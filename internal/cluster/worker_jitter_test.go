package cluster

import (
	"reflect"
	"testing"
	"time"
)

// TestWorkerJitterSeeded: the backoff jitter is a pure function of the
// configured seed — the property that makes a chaos run replayable from
// its seed list — and stays inside [0, limit).
func TestWorkerJitterSeeded(t *testing.T) {
	draw := func(id string, seed int64) []time.Duration {
		t.Helper()
		w, err := NewWorker(WorkerConfig{ID: id, Coordinator: "http://unused", Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		out := make([]time.Duration, 16)
		for i := range out {
			out[i] = w.jitter(time.Second)
			if out[i] < 0 || out[i] >= time.Second {
				t.Fatalf("jitter %v outside [0, 1s)", out[i])
			}
		}
		return out
	}
	if !reflect.DeepEqual(draw("a", 42), draw("a", 42)) {
		t.Error("same seed produced different jitter sequences")
	}
	if reflect.DeepEqual(draw("a", 42), draw("a", 43)) {
		t.Error("different seeds produced identical jitter sequences")
	}
	// Seed 0 derives from the worker ID: still deterministic across
	// restarts, still decorrelated between differently named workers.
	if !reflect.DeepEqual(draw("a", 0), draw("a", 0)) {
		t.Error("ID-derived seed is not stable")
	}
	if reflect.DeepEqual(draw("a", 0), draw("b", 0)) {
		t.Error("workers a and b share an ID-derived jitter sequence")
	}

	w, err := NewWorker(WorkerConfig{ID: "z", Coordinator: "http://unused"})
	if err != nil {
		t.Fatal(err)
	}
	if d := w.jitter(0); d != 0 {
		t.Errorf("jitter(0) = %v, want 0", d)
	}
}
