package main

import (
	"fmt"
	"math"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name string
	Unit string
}

// endToEnd are the metrics an untraced run prints, on every workload. An
// operation is the workload's unit of work: one regeneration of the paper,
// one cold screening sweep, or one warm resubmit; latency runs from the
// client's first request to the last byte of its result.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"alloc_mb_per_op", "MB"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"ops_per_s", "1/s"},
}

// layerDef is one per-layer metric of a traced run and how it is computed
// from the spans (or, for derived metrics, taken from the probe).
type layerDef struct {
	metricDef
	calc func(ls map[string]*layerSample, derived map[string]float64) float64
}

// selfMS is the median self time of the named spans, in milliseconds.
func selfMS(name string) func(map[string]*layerSample, map[string]float64) float64 {
	return func(ls map[string]*layerSample, _ map[string]float64) float64 {
		return ms(sample(ls, name).Self)
	}
}

// selfS is the median self time of the named spans, in seconds.
func selfS(name string) func(map[string]*layerSample, map[string]float64) float64 {
	return func(ls map[string]*layerSample, _ map[string]float64) float64 {
		return median(sample(ls, name).Self)
	}
}

// selfUSPer is the median self time per work unit of the named spans, in
// microseconds.
func selfUSPer(name string) func(map[string]*layerSample, map[string]float64) float64 {
	return func(ls map[string]*layerSample, _ map[string]float64) float64 {
		s := sample(ls, name)
		per := make([]float64, 0, len(s.Self))
		for i, v := range s.Self {
			if s.Work[i] > 0 {
				per = append(per, v/s.Work[i]*1e6)
			}
		}
		return median(per)
	}
}

// workMedian is the median work count of the named spans.
func workMedian(name string) func(map[string]*layerSample, map[string]float64) float64 {
	return func(ls map[string]*layerSample, _ map[string]float64) float64 {
		return median(sample(ls, name).Work)
	}
}

func derivedValue(name string) func(map[string]*layerSample, map[string]float64) float64 {
	return func(_ map[string]*layerSample, d map[string]float64) float64 {
		v, ok := d[name]
		if !ok {
			return math.NaN()
		}
		return v
	}
}

func sample(ls map[string]*layerSample, name string) *layerSample {
	if s, ok := ls[name]; ok {
		return s
	}
	return &layerSample{}
}

func ms(secs []float64) float64 { return median(secs) * 1e3 }

// perLayer are the metrics a traced run prints, on every workload. See
// LAYERS.md for the layer each measures and the end-to-end metric and
// workload it should move.
var perLayer = []layerDef{
	{metricDef{"workload.build_ms", "ms"}, selfMS("workload.build")},

	{metricDef{"emu.mips", "Minst/s"}, derivedValue("emu.mips")},
	{metricDef{"elim.ns_per_inst", "ns"}, derivedValue("elim.ns_per_inst")},
	{metricDef{"pipeline.ns_per_inst", "ns"}, derivedValue("pipeline.ns_per_inst")},
	{metricDef{"pipeline.ns_per_cycle", "ns"}, derivedValue("pipeline.ns_per_cycle")},
	{metricDef{"pipeline.replays_per_kinst", "count"}, derivedValue("pipeline.replays_per_kinst")},
	{metricDef{"backend.detailed_mips", "Minst/s"}, derivedValue("backend.detailed_mips")},
	{metricDef{"backend.functional_mips", "Minst/s"}, derivedValue("backend.functional_mips")},
	{metricDef{"backend.functional_speedup", "x"}, derivedValue("backend.functional_speedup")},

	{metricDef{"harness.mix_s", "s"}, selfS("harness.mix")},
	{metricDef{"harness.fig8_s", "s"}, selfS("harness.fig8")},
	{metricDef{"harness.fig9_s", "s"}, selfS("harness.fig9")},
	{metricDef{"harness.fig10_s", "s"}, selfS("harness.fig10")},
	{metricDef{"harness.fig11_s", "s"}, selfS("harness.fig11")},
	{metricDef{"harness.fig12_s", "s"}, selfS("harness.fig12")},
	{metricDef{"harness.cflat_s", "s"}, selfS("harness.cflat")},

	{metricDef{"sweep.expand_ms", "ms"}, selfMS("sweep.expand")},
	{metricDef{"sweep.key_us", "us"}, selfUSPer("sweep.key")},
	{metricDef{"sweep.encode_us", "us"}, selfUSPer("sweep.encode")},
	{metricDef{"sweep.decode_us", "us"}, selfUSPer("sweep.decode")},
	{metricDef{"sweep.emit_ms", "ms"}, selfMS("sweep.emit")},
	{metricDef{"sweep.emit_bytes", "bytes"}, workMedian("sweep.emit")},
	{metricDef{"sweep.pool_busy_frac", "fraction"}, derivedValue("sweep.pool_busy_frac")},

	{metricDef{"service.submit_ms", "ms"}, selfMS("service.submit")},
	{metricDef{"service.run_ms", "ms"}, selfMS("service.run")},
	{metricDef{"service.results_ms", "ms"}, selfMS("service.results")},
	{metricDef{"service.queue_wait_ms", "ms"}, selfMS("service.queue_wait")},

	{metricDef{"store.put_ms", "ms"}, selfMS("store.put")},
	{metricDef{"store.get_ms", "ms"}, selfMS("store.get")},
	{metricDef{"store.warm_load_ms", "ms"}, selfMS("store.warm_load")},

	{metricDef{"http.post_ms", "ms"}, selfMS("http.post")},
	{metricDef{"http.events_ms", "ms"}, selfMS("http.events")},
	{metricDef{"http.results_ms", "ms"}, selfMS("http.results")},
	{metricDef{"http.results_bytes", "bytes"}, workMedian("http.results")},

	{metricDef{"trace.overhead_frac", "fraction"}, derivedValue("trace.overhead_frac")},
}

// metricValue is one metric as the result line prints it.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEndMetrics computes the untraced run's metrics from its outcome.
func endToEndMetrics(out *outcome) map[string]metricValue {
	ops := len(out.latencies)
	vals := map[string]float64{
		"setup_s":         median(out.setups),
		"alloc_mb_per_op": out.allocMB / float64(ops),
		"latency_p50_ms":  median(out.latencies) * 1e3,
		"latency_p90_ms":  percentile(out.latencies, 90) * 1e3,
		"ops_per_s":       float64(ops) / out.measured.Seconds(),
	}
	m := map[string]metricValue{}
	for _, d := range endToEnd {
		m[d.Name] = metricValue{vals[d.Name], d.Unit}
	}
	return m
}

// layerMetrics computes the traced run's metrics from its spans and the
// probe's derived values.
func layerMetrics(spans []span, derived map[string]float64) (map[string]metricValue, error) {
	ls := samplesByName(spans)
	m := map[string]metricValue{}
	for _, d := range perLayer {
		v := d.calc(ls, derived)
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("per-layer metric %s has no samples", d.Name)
		}
		m[d.Name] = metricValue{v, d.Unit}
	}
	return m, nil
}

// tracingOverhead estimates the share of a traced run's wall time spent
// recording spans.
func tracingOverhead(spans int, perSpan, wall time.Duration) float64 {
	return float64(spans) * perSpan.Seconds() / wall.Seconds()
}
