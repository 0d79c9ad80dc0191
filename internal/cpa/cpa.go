// Package cpa implements the critical-path analyzer used for Figure 9 of
// the paper, based on the model of Fields et al. ("Focusing Processor
// Policies via Critical Path Prediction", ISCA 2001) with the dependence
// edges of the microarchitectural-bottleneck follow-up the paper cites.
//
// The timing simulator records, for every retired instruction, its pipeline
// event times plus *why* each event happened when it did (the last-arriving
// constraint). The analyzer walks that constraint chain backward from the
// youngest instruction in each analysis chunk (the paper uses 1M-instruction
// chunks) and charges each critical edge's latency to one of five buckets:
//
//	fetch   — fetch bandwidth, I$ misses, branch mispredictions, and
//	          finite-window/resource stalls
//	alu     — integer dataflow latency
//	load    — D$ and L2 dataflow latency
//	mem     — main-memory dataflow latency
//	commit  — commit bandwidth
package cpa

import "fmt"

// Bucket identifies a critical-path category.
type Bucket int

const (
	BFetch Bucket = iota
	BALU
	BLoad
	BMem
	BCommit
	NumBuckets
)

func (b Bucket) String() string {
	switch b {
	case BFetch:
		return "fetch"
	case BALU:
		return "alu"
	case BLoad:
		return "load"
	case BMem:
		return "mem"
	case BCommit:
		return "commit"
	}
	return "?"
}

// BoundKind says which constraint was last-arriving for an event.
type BoundKind uint8

const (
	// BoundNone: the event was immediate (no wait).
	BoundNone BoundKind = iota
	// BoundProducer: waited for a producer instruction's result (Seq set).
	BoundProducer
	// BoundFrontend: waited for the front end to deliver the instruction.
	BoundFrontend
	// BoundResource: waited for an issue slot / functional unit / window
	// resource.
	BoundResource
	// BoundPrevFetch: fetch followed the previous instruction's fetch.
	BoundPrevFetch
	// BoundMispredict: fetch waited on a mispredicted branch's resolution
	// (Seq = the branch).
	BoundMispredict
	// BoundPrevCommit: commit waited on the previous commit (bandwidth).
	BoundPrevCommit
	// BoundCompletion: commit waited on this instruction's completion.
	BoundCompletion
	// BoundReplay: fetch waited on a squash/replay redirect (Seq = the
	// violating instruction).
	BoundReplay
	// BoundWindow: the front end was backpressured by a full window
	// resource (ROB/IQ/LSQ/registers); Seq is the in-flight instruction
	// whose progress relieved it (the Fields C_{i-W} -> F_i edge class).
	BoundWindow
)

// Record is the per-retired-instruction trace the analyzer consumes.
// Seq numbers are dense and increasing in commit order within a chunk.
type Record struct {
	Seq uint64

	FetchC  uint64
	IssueC  uint64 // rename time for eliminated instructions
	CompC   uint64 // result-available time
	CommitC uint64

	// ExecBucket classifies the instruction's execution latency: BALU for
	// ALU/branch work, BLoad for D$/L2 loads, BMem for memory loads.
	ExecBucket Bucket

	Eliminated bool

	// IssueBound / FetchBound are the last-arriving constraints.
	IssueBound    BoundKind
	IssueBoundSeq uint64
	FetchBound    BoundKind
	FetchBoundSeq uint64
	CommitBound   BoundKind
}

// Analyzer accumulates records in chunks and aggregates bucket latencies
// over each chunk's critical path.
type Analyzer struct {
	ChunkSize int
	window    []Record
	firstSeq  uint64
	have      bool

	Breakdown [NumBuckets]uint64
	Chunks    int
	PathLen   uint64 // total critical path length accumulated
}

// New creates an analyzer with the given chunk size (the paper uses 1M).
func New(chunkSize int) *Analyzer {
	a := &Analyzer{}
	a.Reset(chunkSize)
	return a
}

// Reset clears a's records and totals and sets its chunk size, leaving it
// as New builds it. The record window keeps its memory when it can hold a
// chunk, so one analyzer serves run after run without reallocating it.
func (a *Analyzer) Reset(chunkSize int) {
	if chunkSize < 2 {
		chunkSize = 2
	}
	w := a.window[:0]
	if cap(w) < chunkSize {
		w = make([]Record, 0, chunkSize)
	}
	*a = Analyzer{ChunkSize: chunkSize, window: w}
}

// Totals returns a new analyzer holding a's chunk size and totals
// (Breakdown, Chunks, PathLen) but no records: it shares no memory with a,
// so it outlives a's reuse, and it is small.
func (a *Analyzer) Totals() *Analyzer {
	return &Analyzer{ChunkSize: a.ChunkSize, Breakdown: a.Breakdown, Chunks: a.Chunks, PathLen: a.PathLen}
}

// Add appends one retired-instruction record; when the chunk fills it is
// analyzed and cleared.
func (a *Analyzer) Add(r Record) {
	if !a.have {
		a.firstSeq = r.Seq
		a.have = true
	}
	a.window = append(a.window, r)
	if len(a.window) >= a.ChunkSize {
		a.Flush()
	}
}

// Flush analyzes any buffered records.
func (a *Analyzer) Flush() {
	if len(a.window) >= 2 {
		a.analyzeChunk()
		a.Chunks++
	}
	a.window = a.window[:0]
	a.have = false
}

// idx locates the record with the given sequence number. Seq values are
// strictly increasing in commit order (squash replays are assigned fresh,
// larger numbers), so a binary search suffices.
func (a *Analyzer) idx(seq uint64) (int, bool) {
	w := a.window
	lo, hi := 0, len(w)-1
	for lo <= hi {
		mid := (lo + hi) / 2
		switch {
		case w[mid].Seq == seq:
			return mid, true
		case w[mid].Seq < seq:
			lo = mid + 1
		default:
			hi = mid - 1
		}
	}
	return 0, false
}

// analyzeChunk walks the last-arriving constraint chain backward from the
// youngest instruction, charging each traversed edge to its bucket.
func (a *Analyzer) analyzeChunk() {
	w := a.window
	i := len(w) - 1

	type stage uint8
	const (
		atCommit stage = iota
		atComplete
		atFetch
	)

	st := atCommit
	start := w[0].CommitC
	end := w[i].CommitC
	if end > start {
		a.PathLen += end - start
	}

	charge := func(b Bucket, from, to uint64) {
		if to > from {
			a.Breakdown[b] += to - from
		}
	}

	// Bounded walk: each step moves strictly backward in (instruction,
	// stage) order, so it terminates; the step cap is defensive.
	for steps := 0; steps < len(w)*4; steps++ {
		r := &w[i]
		switch st {
		case atCommit:
			if r.CommitBound == BoundPrevCommit && i > 0 {
				charge(BCommit, w[i-1].CommitC, r.CommitC)
				i--
				continue
			}
			// Completion-bound: retire latency is commit-bucket, then
			// descend into this instruction's execution.
			charge(BCommit, r.CompC, r.CommitC)
			st = atComplete
		case atComplete:
			// Execution latency belongs to the exec bucket.
			charge(r.ExecBucket, r.IssueC, r.CompC)
			switch r.IssueBound {
			case BoundProducer:
				if j, ok := a.idx(r.IssueBoundSeq); ok {
					// Wakeup wait belongs to the producer's bucket.
					charge(w[j].ExecBucket, w[j].CompC, r.IssueC)
					i = j
					st = atComplete
					continue
				}
				st = atFetch
			case BoundResource:
				// Finite-window/issue-bandwidth waits count as fetch per
				// the paper's bucket definition.
				charge(BFetch, r.FetchC, r.IssueC)
				st = atFetch
			default:
				st = atFetch
			}
		case atFetch:
			switch r.FetchBound {
			case BoundMispredict, BoundReplay, BoundWindow:
				// The redirect/backpressure wait is fetch-bucket time
				// (per the paper's bucket definition), but the walk then
				// descends into the instruction whose execution resolved
				// it, so the upstream bottleneck is charged correctly.
				if j, ok := a.idx(r.FetchBoundSeq); ok && j < i {
					charge(BFetch, w[j].CompC, r.FetchC)
					i = j
					st = atComplete
					continue
				}
				if i == 0 {
					return
				}
				charge(BFetch, w[i-1].FetchC, r.FetchC)
				i--
			default:
				if i == 0 {
					return
				}
				charge(BFetch, w[i-1].FetchC, r.FetchC)
				i--
			}
		}
		if i == 0 && st == atFetch {
			return
		}
	}
}

// Percent returns each bucket's share of the accumulated critical path.
func (a *Analyzer) Percent() [NumBuckets]float64 {
	var out [NumBuckets]float64
	var total uint64
	for _, v := range a.Breakdown {
		total += v
	}
	if total == 0 {
		return out
	}
	for b, v := range a.Breakdown {
		out[b] = 100 * float64(v) / float64(total)
	}
	return out
}

// String renders the breakdown.
func (a *Analyzer) String() string {
	p := a.Percent()
	return fmt.Sprintf("fetch %.1f%% alu %.1f%% load %.1f%% mem %.1f%% commit %.1f%%",
		p[BFetch], p[BALU], p[BLoad], p[BMem], p[BCommit])
}
