package sweep

import (
	"bytes"
	"testing"

	"reno/metrics"
)

// memoResult is a complete result with wall-clock telemetry, as a result
// cache would hold it.
func memoResult() *Result {
	return &Result{
		Bench: "gzip", Suite: "SPECint", Machine: "4w", Config: "RENO", Seed: 1,
		Cycles: 10, Insts: 20, IPC: 2,
		ArchHash: "00000000000000aa", Hash: "00000000000000bb",
		WallNS: 12345, SimInstsPerSec: 6.5,
		Metrics:    metrics.NewSet().Counter(metrics.PipelineCycles, 10).Gauge(metrics.PipelineIPC, 2),
		stopReason: "max-insts",
	}
}

// emitOne returns the envelope bytes of a one-result report.
func emitOne(t *testing.T, r *Result, opts EmitOptions) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := NewReport(Grid{}, []*Result{r}).WriteJSON(&buf, opts); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestRecordMemo: clones of a complete result share one stable record,
// rendered by the first stable emission and not by a wall-clock one, and
// emit what the never-cloned result emits live. A clone whose run hash,
// bench or metric set changes after that emission emits the changed
// record, and so do its own clones.
func TestRecordMemo(t *testing.T) {
	stable := EmitOptions{Deterministic: true}
	if r := memoResult(); r.memo != nil || (&Result{Bench: "gzip", Err: "boom"}).Clone().memo != nil {
		t.Fatal("a fresh or failed result carries a record memo")
	}
	stored := memoResult().Clone() // a cache's copy
	want := emitOne(t, memoResult(), stable)

	first := stored.Clone()
	if got, live := emitOne(t, first, EmitOptions{}), emitOne(t, memoResult(), EmitOptions{}); !bytes.Equal(got, live) {
		t.Fatalf("wall-clock emission of a clone:\n%s\n----\nwant\n%s", got, live)
	}
	if first.memo != stored.memo || first.memo.rec.Metrics != nil {
		t.Fatal("a wall-clock emission filled the shared memo")
	}
	for i := 0; i < 2; i++ {
		if got := emitOne(t, first, stable); !bytes.Equal(got, want) {
			t.Fatalf("stable emission %d of a clone:\n%s\n----\nwant\n%s", i, got, want)
		}
	}
	if first.memo.rec.Metrics == nil {
		t.Fatal("a stable emission of a clone left its memo empty")
	}

	changes := map[string]func(*Result){
		"hash":    func(r *Result) { r.Hash = "00000000000000cc" },
		"bench":   func(r *Result) { r.Bench = "gsm.de" },
		"metrics": func(r *Result) { r.Metrics = metrics.NewSet().Counter(metrics.PipelineCycles, 11) },
	}
	for name, change := range changes {
		c := stored.Clone()
		change(c)
		live := memoResult()
		change(live)
		wantChanged := emitOne(t, live, stable)
		if bytes.Equal(wantChanged, want) {
			t.Fatalf("%s: the change does not show in the record", name)
		}
		if got := emitOne(t, c, stable); !bytes.Equal(got, wantChanged) {
			t.Errorf("%s: changed clone emitted\n%s\n----\nwant\n%s", name, got, wantChanged)
		}
		cc := c.Clone()
		for i := 0; i < 2; i++ {
			if got := emitOne(t, cc, stable); !bytes.Equal(got, wantChanged) {
				t.Errorf("%s: clone %d of a changed clone emitted\n%s\n----\nwant\n%s", name, i, got, wantChanged)
			}
		}
	}
	if got := emitOne(t, stored.Clone(), stable); !bytes.Equal(got, want) {
		t.Errorf("an unchanged clone emitted\n%s\n----\nwant\n%s", got, want)
	}
}
