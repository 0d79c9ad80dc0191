// Package harness regenerates the experiments of Section 4: each figure
// runs its benchmark suites across processor and RENO configurations as a
// sweep grid and renders the rows and series of its table. cmd/renobench
// prints them.
package harness

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
	"time"

	"reno/internal/sweep"
	"reno/internal/workload"
)

// Options controls experiment scale.
type Options struct {
	// Scale multiplies every workload's iteration count (1.0 ≈ 100-300k
	// dynamic instructions per benchmark); <= 0 means 1.0, as in a sweep.
	Scale float64
	// MaxInsts caps the timed instructions per run (0 = to completion).
	MaxInsts uint64
	// Parallel runs benchmarks concurrently on the sweep worker pool.
	Parallel bool
	// Workers bounds pool concurrency; 0 means GOMAXPROCS when Parallel,
	// 1 otherwise.
	Workers int
	// Timeout bounds each run's wall-clock time (0 = none); timed-out
	// runs are reported as errors with partial statistics.
	Timeout time.Duration
}

// DefaultOptions returns laptop-scale settings.
func DefaultOptions() Options {
	return Options{Scale: 1.0, MaxInsts: 300_000, Parallel: true}
}

// workers resolves the effective pool width. Parallel=false always means
// serial (renobench documents -workers as ignored with -serial); Workers
// only widens a parallel pool.
func (o Options) workers() int {
	if !o.Parallel {
		return 1
	}
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// results indexes one grid's runs by bench/tag (sweep.Result.Key).
type results map[string]*sweep.Result

// runGrid expands g and runs it on the sweep pool with opts's execution
// knobs (the grid's own Scale/MaxInsts/Workers are ignored, so figure code
// carries one source of them). Every architectural-equivalence violation
// sweep.Audit finds is written to w as a WARNING line, which makes a
// divergence visible in the figure text itself.
func runGrid(ctx context.Context, w io.Writer, g sweep.Grid, opts Options) results {
	jobs, err := g.Expand()
	if err != nil {
		panic(err) // static grid: a failure is a programming error
	}
	rs := sweep.RunContext(ctx, jobs, sweep.Options{
		Workers: opts.workers(), Scale: opts.Scale, MaxInsts: opts.MaxInsts, Timeout: opts.Timeout,
	})
	idx := make(results, len(rs))
	for _, r := range rs {
		if r.BuildFailed() {
			// Benchmark profiles are static data; a workload that won't
			// build is a programming error, not a per-run failure to
			// render as a blank table cell.
			panic(fmt.Sprintf("workload %s: %s", r.Bench, r.Err))
		}
		idx[r.Key()] = r
	}
	for _, warn := range sweep.Audit(rs) {
		fmt.Fprintf(w, "WARNING: %s\n", warn)
	}
	return idx
}

// get returns the successful run for (bench, tag), or nil.
func (rs results) get(bench, tag string) *sweep.Result {
	if r, ok := rs[bench+"/"+tag]; ok && r.Err == "" {
		return r
	}
	return nil
}

// speedup returns the percentage speedup of config over base for bench,
// computed from cycle counts as in the paper (NaN if either run failed).
func (rs results) speedup(bench, base, config string) float64 {
	b, c := rs.get(bench, base), rs.get(bench, config)
	if b == nil || c == nil || c.Cycles == 0 {
		return math.NaN()
	}
	return 100 * (float64(b.Cycles)/float64(c.Cycles) - 1)
}

// relPerf returns config's performance relative to base as a percentage
// (100 = parity), the Figure 11/12 normalization.
func (rs results) relPerf(bench, base, config string) float64 {
	b, c := rs.get(bench, base), rs.get(bench, config)
	if b == nil || c == nil || c.Cycles == 0 {
		return math.NaN()
	}
	return 100 * float64(b.Cycles) / float64(c.Cycles)
}

// suites lists the two benchmark suites every figure reports, in print
// order.
var suites = []struct {
	name  string
	profs []workload.Profile
}{{"SPECint", workload.SPECint()}, {"MediaBench", workload.MediaBench()}}

// MeanPct is the arithmetic mean ignoring NaNs (the paper's amean).
func MeanPct(vals []float64) float64 {
	var sum float64
	n := 0
	for _, v := range vals {
		if math.IsNaN(v) {
			continue
		}
		sum += v
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// Table renders a simple fixed-width text table.
type Table struct {
	Title   string
	Columns []string
	rows    [][]string
}

// AddRow appends a row of cells.
func (t *Table) AddRow(cells ...string) { t.rows = append(t.rows, cells) }

// Fprint writes the table.
func (t *Table) Fprint(w io.Writer) {
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	if t.Title != "" {
		fmt.Fprintf(w, "%s\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				fmt.Fprint(w, "  ")
			}
			fmt.Fprintf(w, "%-*s", widths[min(i, len(widths)-1)], c)
		}
		fmt.Fprintln(w)
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.rows {
		line(row)
	}
}

// F formats a float with one decimal, rendering NaN as "-".
func F(v float64) string {
	if math.IsNaN(v) {
		return "-"
	}
	return fmt.Sprintf("%.1f", v)
}
