package main

import (
	"encoding/json"
	"os"
	"regexp"
	"sort"
	"testing"
)

// benchmarkFile is the part of the repository's BENCHMARK.json the runner
// must agree with.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestMetricNamesAreWellFormedAndUnique(t *testing.T) {
	seen := map[string]bool{}
	var defs []metricDef
	defs = append(defs, endToEnd...)
	for _, d := range perLayer {
		defs = append(defs, d.metricDef)
	}
	for _, d := range defs {
		if !metricName.MatchString(d.Name) {
			t.Errorf("metric name %q is not [A-Za-z0-9_.-]+", d.Name)
		}
		if seen[d.Name] {
			t.Errorf("metric %q defined twice", d.Name)
		}
		seen[d.Name] = true
	}
}

func TestBenchmarkFileMatchesRunner(t *testing.T) {
	bf := loadBenchmarkFile(t)

	var files, runner []string
	for _, w := range bf.Workloads {
		files = append(files, w.Name)
	}
	for n := range workloads {
		runner = append(runner, n)
	}
	sort.Strings(files)
	sort.Strings(runner)
	if len(files) != len(runner) {
		t.Fatalf("BENCHMARK.json workloads %v, runner %v", files, runner)
	}
	for i := range files {
		if files[i] != runner[i] {
			t.Errorf("BENCHMARK.json workloads %v, runner %v", files, runner)
		}
	}

	if len(bf.EndToEnd) != len(endToEnd) {
		t.Errorf("BENCHMARK.json has %d end-to-end metrics, runner %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i := range min(len(bf.EndToEnd), len(endToEnd)) {
		if f, r := bf.EndToEnd[i], endToEnd[i]; f.Name != r.Name || f.Unit != r.Unit {
			t.Errorf("end-to-end metric %d: BENCHMARK.json %s [%s], runner %s [%s]", i, f.Name, f.Unit, r.Name, r.Unit)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json has %d per-layer metrics, runner %d", len(bf.PerLayer), len(perLayer))
	}
	for i := range min(len(bf.PerLayer), len(perLayer)) {
		if f, r := bf.PerLayer[i], perLayer[i]; f.Name != r.Name || f.Unit != r.Unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json %s [%s], runner %s [%s]", i, f.Name, f.Unit, r.Name, r.Unit)
		}
	}
}

func TestEndToEndMetricsCoverEveryDefinition(t *testing.T) {
	out := &outcome{setups: []float64{1, 2, 3}, latencies: []float64{0.1, 0.2}, measured: 1e9, allocMB: 50}
	m := endToEndMetrics(out)
	if len(m) != len(endToEnd) {
		t.Fatalf("computed %d end-to-end metrics, defined %d", len(m), len(endToEnd))
	}
	for _, d := range endToEnd {
		v, ok := m[d.Name]
		if !ok || v.Unit != d.Unit || v.Value <= 0 {
			t.Errorf("%s = %+v", d.Name, v)
		}
	}
	if m["setup_s"].Value != 2 || m["ops_per_s"].Value != 2 || m["alloc_mb_per_op"].Value != 25 {
		t.Errorf("setup_s %v, ops_per_s %v, alloc_mb_per_op %v", m["setup_s"].Value, m["ops_per_s"].Value, m["alloc_mb_per_op"].Value)
	}
}
