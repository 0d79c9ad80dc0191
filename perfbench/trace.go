package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span phases: spans recorded while the workload itself runs, and spans
// recorded by the layer probe that follows it in a traced run.
const (
	phaseWorkload = "workload"
	phaseProbe    = "probe"
)

// span is one timed call from the benchmark into a layer of the program.
// Start and End are offsets from the tracer's epoch. Parent is the ID of the
// span that caused this one (0 = none); Req groups the spans of one request
// or cell. Work counts units done under the span (instructions, keys,
// bytes), so per-unit costs are measured where the work happens.
type span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent,omitempty"`
	Name   string        `json:"name"`
	Phase  string        `json:"phase"`
	Req    string        `json:"req,omitempty"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Work   int64         `json:"work,omitempty"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer holds spans in memory until the run ends. A disabled tracer
// records nothing, so the untraced run pays one branch per call site.
type tracer struct {
	on    bool
	epoch time.Time

	mu    sync.Mutex
	phase string // guarded by mu
	spans []span // guarded by mu
}

func newTracer(on bool) *tracer {
	return &tracer{on: on, epoch: time.Now(), phase: phaseWorkload}
}

// setPhase labels the spans recorded from now on.
func (t *tracer) setPhase(p string) {
	t.mu.Lock()
	t.phase = p
	t.mu.Unlock()
}

// now returns the current offset from the epoch.
func (t *tracer) now() time.Duration { return time.Since(t.epoch) }

// at converts a wall-clock instant (such as a job timestamp the service
// reports) to an offset from the epoch.
func (t *tracer) at(ts time.Time) time.Duration { return ts.Sub(t.epoch) }

// begin opens a span and returns its ID (0 when tracing is off).
func (t *tracer) begin(name string, parent int, req string) int {
	if !t.on {
		return 0
	}
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Phase: t.phase, Req: req, Start: start, End: -1})
	return id
}

// end closes span id, crediting it with work units.
func (t *tracer) end(id int, work int64) {
	if id == 0 {
		return
	}
	end := t.now()
	t.mu.Lock()
	t.spans[id-1].End = end
	t.spans[id-1].Work = work
	t.mu.Unlock()
}

// record adds a span whose interval was measured elsewhere.
func (t *tracer) record(name string, parent int, req string, start, end time.Duration, work int64) int {
	if !t.on {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Phase: t.phase, Req: req, Start: start, End: end, Work: work})
	return id
}

// snapshot returns the closed spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]span, 0, len(t.spans))
	for _, s := range t.spans {
		if s.End >= s.Start {
			out = append(out, s)
		}
	}
	return out
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its children cover. Children may overlap each other
// (two concurrent calls under one request), so the covered part is the
// union of their intervals, clipped to the parent's.
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered := time.Duration(0)
		curLo, curHi := time.Duration(-1), time.Duration(-1)
		for _, k := range kids {
			lo, hi := max(k.Start, s.Start), min(k.End, s.End)
			if hi <= lo {
				continue
			}
			if lo > curHi {
				covered += curHi - curLo
				curLo, curHi = lo, hi
				continue
			}
			curHi = max(curHi, hi)
		}
		covered += curHi - curLo
		self[s.ID] = s.dur() - covered
	}
	return self
}

// layerSample is the set of spans one per-layer metric is computed from.
type layerSample struct {
	Self []float64 // self times, seconds
	Dur  []float64 // durations, seconds
	Work []float64 // work units
}

// samplesByName groups spans by name, preferring the workload's own spans:
// a name the workload recorded is measured there, and only names it never
// reached fall back to the probe's spans.
func samplesByName(spans []span) map[string]*layerSample {
	self := selfTimes(spans)
	byPhase := map[string]map[string]*layerSample{}
	for _, s := range spans {
		m := byPhase[s.Phase]
		if m == nil {
			m = map[string]*layerSample{}
			byPhase[s.Phase] = m
		}
		ls := m[s.Name]
		if ls == nil {
			ls = &layerSample{}
			m[s.Name] = ls
		}
		ls.Self = append(ls.Self, self[s.ID].Seconds())
		ls.Dur = append(ls.Dur, s.dur().Seconds())
		ls.Work = append(ls.Work, float64(s.Work))
	}
	out := map[string]*layerSample{}
	for name, ls := range byPhase[phaseProbe] {
		out[name] = ls
	}
	for name, ls := range byPhase[phaseWorkload] {
		out[name] = ls
	}
	return out
}

// writeSpans writes the trace as JSON: the spans and their self times.
func writeSpans(path string, spans []span) error {
	self := selfTimes(spans)
	type out struct {
		span
		SelfNS time.Duration `json:"self_ns"`
	}
	rows := make([]out, len(spans))
	for i, s := range spans {
		rows[i] = out{s, self[s.ID]}
	}
	data, err := json.MarshalIndent(rows, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
