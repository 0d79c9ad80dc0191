package sweep

import (
	"encoding/csv"
	"encoding/json"
	"io"
	"strconv"
	"sync"

	"reno/metrics"
)

// Report is a completed sweep: the grid that produced it, one result per
// run (in job order), and aggregate totals. Its serialized form is the
// unified reno.metrics/v1 envelope (MetricsReport), with CSV as a
// flat-table convenience view.
type Report struct {
	Grid    Grid
	Summary Summary
	Results []*Result
}

// EmitOptions controls serialization.
type EmitOptions struct {
	// Deterministic zeroes wall-clock fields so the emitted bytes are
	// identical across runs and worker counts (for diffing and CI).
	Deterministic bool
}

// NewReport assembles a Report from a grid and its results.
func NewReport(g Grid, results []*Result) *Report {
	return &Report{Grid: g, Summary: Summarize(results), Results: results}
}

// MetricsReport renders the sweep as a reno.metrics/v1 envelope: the grid
// embedded as the report spec, the sweep totals as the summary set, and one
// record per run in job order — successful runs carry the full pipeline
// metric set, failed runs the partial counters plus an error attr. With
// opts.Deterministic, wall-clock metrics are zeroed and the embedded grid
// drops its worker count, so two stable sweeps of the same grid are
// byte-identical whatever pool width produced them. A deterministic record
// of a cloned result comes from its memo (Result.Clone): every stable
// emission of that result shares one record, whose labels, attrs and
// metric set are read-only. The envelope's Tool is left for the caller to
// stamp (the facade says "sim", the CLI "renosweep").
func (rep *Report) MetricsReport(opts EmitOptions) (*metrics.Report, error) {
	out := metrics.NewReport("")
	out.Records = make([]metrics.Record, 0, len(rep.Results))

	grid := rep.Grid
	if opts.Deterministic {
		grid.Workers = 0
	}
	// Absent axes marshal as [] rather than null, so a grid parsed from a
	// spec that omits an axis embeds the same bytes as one built from
	// explicit empty slices — the envelope must not depend on which door
	// the grid came in through (CLI flags, -grid file, or POST body).
	if grid.Benches == nil {
		grid.Benches = []string{}
	}
	if grid.MachineConfigs == nil {
		grid.MachineConfigs = []Spec{}
	}
	if grid.RenoConfigs == nil {
		grid.RenoConfigs = []Spec{}
	}
	if grid.Seeds == nil {
		grid.Seeds = []int64{}
	}
	spec, err := json.Marshal(grid)
	if err != nil {
		return nil, err
	}
	out.Spec = spec

	sum := rep.Summary
	wall := sum.WallNS
	if opts.Deterministic {
		wall = 0
	}
	out.Summary = metrics.NewSet().
		Counter(metrics.SweepRuns, uint64(sum.Runs)).
		Counter(metrics.SweepFailed, uint64(sum.Failed)).
		Counter(metrics.SweepInsts, sum.Insts).
		Counter(metrics.SweepCycles, sum.Cycles).
		Counter(metrics.SweepWallNS, uint64(wall)).
		Gauge(metrics.SweepMeanIPC, sum.MeanIPC).
		Counter(metrics.SweepAuditWarnings, uint64(sum.Warnings))

	for _, r := range rep.Results {
		if r == nil {
			continue
		}
		if m := r.memo; opts.Deterministic && m != nil && m.matches(r) {
			out.Add(m.record(r))
		} else {
			out.Add(r.record(opts))
		}
	}
	return out, nil
}

// recordMemo is the stable envelope record of a complete result and its
// clones, rendered and encoded (metrics.EncodedRecord) by the first
// deterministic emission that uses it. src is the result it was made for,
// without the wall-clock fields a deterministic record zeroes; only a
// result that still equals src uses the memo, so a holder that changes a
// clone's fields gets a record of what it changed.
type recordMemo struct {
	src  Result
	once sync.Once
	rec  metrics.Record
}

// newRecordMemo returns an empty memo for r.
func newRecordMemo(r *Result) *recordMemo {
	return &recordMemo{src: r.stableFields()}
}

// stableFields returns r without its memo and wall-clock fields.
func (r *Result) stableFields() Result {
	s := *r
	s.memo, s.WallNS, s.SimInstsPerSec = nil, 0, 0
	return s
}

// matches reports whether r is still the result m was made for.
func (m *recordMemo) matches(r *Result) bool { return r.stableFields() == m.src }

// record returns r's deterministic record, rendering and encoding it on
// the first call. A record the encoder refuses stays live, so every Encode
// of it reports the error.
func (m *recordMemo) record(r *Result) metrics.Record {
	m.once.Do(func() {
		m.rec = r.record(EmitOptions{Deterministic: true})
		if enc, err := metrics.EncodedRecord(m.rec); err == nil {
			m.rec = enc
		}
	})
	return m.rec
}

// record renders one run as an envelope record.
func (r *Result) record(opts EmitOptions) metrics.Record {
	labels := map[string]string{
		metrics.LabelBench:  r.Bench,
		metrics.LabelConfig: r.Config,
	}
	if r.Suite != "" {
		labels[metrics.LabelSuite] = r.Suite
	}
	if r.Machine != "" {
		labels[metrics.LabelMachine] = r.Machine
	}
	if r.Seed != 0 {
		labels[metrics.LabelSeed] = strconv.FormatInt(r.Seed, 10)
	}
	if r.Backend != "" {
		labels[metrics.LabelBackend] = r.Backend
	}

	attrs := map[string]string{metrics.AttrRunHash: r.Hash}
	if r.ArchHash != "" {
		attrs[metrics.AttrArchHash] = r.ArchHash
	}
	if r.Err != "" {
		attrs[metrics.AttrError] = r.Err
	}

	var set *metrics.Set
	if r.Metrics != nil {
		// Copy the run's set before the wall-clock metrics are layered on
		// below: it is shared by every clone of this result (Clone). The
		// copy has room for them, so it is not copied again as they go in.
		set = r.Metrics.Clone()
		if r.stopReason != "" {
			attrs[metrics.AttrStopReason] = r.stopReason
		}
	} else {
		// The run failed (or was canceled before completing): emit the
		// partial headline counters the pool recorded.
		set = metrics.NewSet().
			Counter(metrics.PipelineCycles, r.Cycles).
			Counter(metrics.PipelineInsts, r.Insts).
			Gauge(metrics.PipelineIPC, r.IPC)
	}
	wall, ips := r.WallNS, r.SimInstsPerSec
	if opts.Deterministic {
		wall, ips = 0, 0
	}
	set.Counter(metrics.RunWallNS, uint64(wall))
	set.Gauge(metrics.RunSimInstsPerSec, ips)
	return metrics.Record{Labels: labels, Attrs: attrs, Metrics: set}
}

// WriteJSON writes the report as a reno.metrics/v1 envelope.
func (rep *Report) WriteJSON(w io.Writer, opts EmitOptions) error {
	mr, err := rep.MetricsReport(opts)
	if err != nil {
		return err
	}
	return mr.Encode(w)
}

// csvHeader is the column order of WriteCSV.
var csvHeader = []string{
	"bench", "suite", "machine", "config", "seed", "backend",
	"cycles", "insts", "ipc",
	"elim_me", "elim_cf", "elim_loads", "elim_alu", "elim_total",
	"branch_accuracy", "arch_hash", "run_hash", "wall_ns", "error",
}

// WriteCSV writes one row per run in job order.
func (rep *Report) WriteCSV(w io.Writer, opts EmitOptions) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, r := range rep.Results {
		if r == nil {
			continue
		}
		wall := strconv.FormatInt(r.WallNS, 10)
		if opts.Deterministic {
			wall = "0"
		}
		row := []string{
			r.Bench, r.Suite, r.Machine, r.Config, strconv.FormatInt(r.Seed, 10), r.Backend,
			strconv.FormatUint(r.Cycles, 10), strconv.FormatUint(r.Insts, 10), f(r.IPC),
			f(r.ElimME), f(r.ElimCF), f(r.ElimLoads), f(r.ElimALU), f(r.ElimTotal),
			f(r.BranchAccuracy), r.ArchHash, r.Hash, wall, r.Err,
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
