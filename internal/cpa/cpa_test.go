package cpa

import (
	"reflect"
	"testing"

	"reno/internal/emu"
	"reno/internal/isa"
	"reno/internal/workload"
)

// chain builds a window of n records forming a pure serial dataflow chain:
// each instruction waits on its predecessor's completion, with lat cycles
// of execution in the given bucket.
func chain(n int, lat uint64, bucket Bucket) []Record {
	recs := make([]Record, n)
	var t uint64
	for i := range recs {
		issue := t
		comp := issue + lat
		recs[i] = Record{
			Seq:         uint64(i),
			FetchC:      0,
			IssueC:      issue,
			CompC:       comp,
			CommitC:     comp + 1,
			ExecBucket:  bucket,
			IssueBound:  BoundProducer,
			FetchBound:  BoundPrevFetch,
			CommitBound: BoundCompletion,
		}
		if i > 0 {
			recs[i].IssueBoundSeq = uint64(i - 1)
		} else {
			recs[i].IssueBound = BoundFrontend
		}
		t = comp
	}
	return recs
}

func TestSerialALUChainChargesALU(t *testing.T) {
	a := New(1 << 20)
	for _, r := range chain(100, 1, BALU) {
		a.Add(r)
	}
	a.Flush()
	p := a.Percent()
	if p[BALU] < 80 {
		t.Errorf("ALU share = %.1f%%, want >= 80%% for a pure ALU chain (breakdown %v)", p[BALU], a.Breakdown)
	}
}

func TestSerialLoadChainChargesLoad(t *testing.T) {
	a := New(1 << 20)
	for _, r := range chain(50, 6, BLoad) {
		a.Add(r)
	}
	a.Flush()
	p := a.Percent()
	if p[BLoad] < 85 {
		t.Errorf("load share = %.1f%%, want >= 85%% (breakdown %v)", p[BLoad], a.Breakdown)
	}
}

func TestFetchBoundProgram(t *testing.T) {
	// Independent instructions paced purely by fetch bandwidth.
	a := New(1 << 20)
	for i := 0; i < 100; i++ {
		f := uint64(i)
		a.Add(Record{
			Seq: uint64(i), FetchC: f, IssueC: f + 4, CompC: f + 5, CommitC: f + 6,
			ExecBucket: BALU,
			IssueBound: BoundFrontend, FetchBound: BoundPrevFetch,
			CommitBound: BoundCompletion, // commits track completions 1:1
		})
	}
	a.Flush()
	p := a.Percent()
	if p[BFetch] < 60 {
		t.Errorf("fetch share = %.1f%%, want >= 60%% (breakdown %v)", p[BFetch], a.Breakdown)
	}
}

func TestMispredictEdgeDescendsIntoBranch(t *testing.T) {
	a := New(1 << 20)
	// A slow producer (seq 0), then a branch depending on it (seq 1), then
	// instructions refetched after the branch resolved.
	a.Add(Record{Seq: 0, IssueC: 0, CompC: 20, CommitC: 21, ExecBucket: BMem,
		IssueBound: BoundFrontend, FetchBound: BoundPrevFetch, CommitBound: BoundCompletion})
	a.Add(Record{Seq: 1, FetchC: 1, IssueC: 20, CompC: 21, CommitC: 22, ExecBucket: BALU,
		IssueBound: BoundProducer, IssueBoundSeq: 0, FetchBound: BoundPrevFetch,
		CommitBound: BoundCompletion})
	for i := 2; i < 10; i++ {
		f := uint64(29 + i)
		a.Add(Record{Seq: uint64(i), FetchC: f, IssueC: f + 4, CompC: f + 5, CommitC: f + 6,
			ExecBucket: BALU, IssueBound: BoundFrontend,
			FetchBound: BoundMispredict, FetchBoundSeq: 1,
			CommitBound: BoundCompletion})
	}
	a.Flush()
	// The walk should cross the mispredict edge into the branch, then the
	// producer edge into the 20-cycle memory op: mem must dominate.
	p := a.Percent()
	if p[BMem] < 30 {
		t.Errorf("mem share = %.1f%%, want the slow producer visible (breakdown %v)", p[BMem], a.Breakdown)
	}
	if p[BFetch] == 0 {
		t.Error("mispredict redirect charged no fetch time")
	}
}

func TestCommitBandwidthBucket(t *testing.T) {
	a := New(1 << 20)
	// Everything completes at once; commits trickle at 1/cycle.
	for i := 0; i < 50; i++ {
		a.Add(Record{
			Seq: uint64(i), FetchC: 0, IssueC: 1, CompC: 2, CommitC: uint64(3 + i),
			ExecBucket:  BALU,
			IssueBound:  BoundFrontend,
			FetchBound:  BoundPrevFetch,
			CommitBound: BoundPrevCommit,
		})
	}
	a.Flush()
	p := a.Percent()
	if p[BCommit] < 70 {
		t.Errorf("commit share = %.1f%%, want >= 70%% (breakdown %v)", p[BCommit], a.Breakdown)
	}
}

func TestChunking(t *testing.T) {
	a := New(10)
	for _, r := range chain(35, 1, BALU) {
		a.Add(r)
	}
	a.Flush()
	if a.Chunks != 4 { // 10+10+10+5
		t.Errorf("chunks = %d, want 4", a.Chunks)
	}
}

func TestPercentSumsTo100(t *testing.T) {
	a := New(1 << 20)
	for _, r := range chain(60, 2, BLoad) {
		a.Add(r)
	}
	a.Flush()
	var sum float64
	for _, v := range a.Percent() {
		sum += v
	}
	if sum < 99.9 || sum > 100.1 {
		t.Errorf("percent sum = %.2f", sum)
	}
}

func TestEmptyAnalyzer(t *testing.T) {
	a := New(100)
	a.Flush()
	if a.Chunks != 0 {
		t.Error("empty analyzer produced chunks")
	}
	for _, v := range a.Percent() {
		if v != 0 {
			t.Error("empty analyzer produced percentages")
		}
	}
}

func TestBucketStrings(t *testing.T) {
	want := map[Bucket]string{BFetch: "fetch", BALU: "alu", BLoad: "load", BMem: "mem", BCommit: "commit"}
	for b, s := range want {
		if b.String() != s {
			t.Errorf("bucket %d = %q, want %q", b, b.String(), s)
		}
	}
}

// TestResetKeepsWindow: an analyzer fed a serial chain through a region
// of gzip (loads charged to the load bucket, everything else to the ALU),
// with half a chunk still buffered, once reset equals a newly built one in
// every field and keeps its window's array; a larger chunk size gets a
// larger one. Totals copies the totals and none of the records.
func TestResetKeepsWindow(t *testing.T) {
	prof, _ := workload.ByName("gzip")
	trace, err := emu.CollectTrace(workload.MustBuild(workload.Scale(prof, 0.2)).Code, 2_500)
	if err != nil {
		t.Fatal(err)
	}
	a := New(1_000)
	var c uint64
	for i, d := range trace {
		r := Record{
			Seq: uint64(i), FetchC: c, IssueC: c + 1, CompC: c + 2, CommitC: c + 3,
			ExecBucket: BALU, IssueBound: BoundProducer, IssueBoundSeq: uint64(i) - 1,
			FetchBound: BoundPrevFetch, CommitBound: BoundCompletion,
		}
		if d.Facts.Class() == isa.ClassLoad {
			r.ExecBucket, r.CompC = BLoad, c+4
		}
		a.Add(r)
		c = r.CompC
	}
	if a.Chunks != 2 || len(a.window) != 500 {
		t.Fatalf("test setup: %d chunks, %d records buffered; want 2 and 500", a.Chunks, len(a.window))
	}
	totals := a.Totals()
	if totals.window != nil || totals.ChunkSize != a.ChunkSize || totals.Breakdown != a.Breakdown ||
		totals.Chunks != a.Chunks || totals.PathLen != a.PathLen {
		t.Errorf("Totals() = %+v, want the totals of %+v and no records", totals, a)
	}
	arr := &a.window[:1][0]
	a.Reset(1_000)
	if !reflect.DeepEqual(a, New(1_000)) {
		t.Error("a reset analyzer differs from a newly built one")
	}
	if &a.window[:1][0] != arr {
		t.Error("Reset reallocated a window large enough for the chunk")
	}
	if totals.Chunks != 2 || totals.PathLen == 0 {
		t.Errorf("Reset changed the totals copied out before it: %+v", totals)
	}
	a.Reset(4_000)
	if !reflect.DeepEqual(a, New(4_000)) || cap(a.window) < 4_000 {
		t.Errorf("an analyzer reset to a larger chunk holds %d records, want room for 4000", cap(a.window))
	}
}
