package harness

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"sync"

	"reno/internal/backend"
	"reno/internal/cpa"
	"reno/internal/emu"
	"reno/internal/isa"
	"reno/internal/pipeline"
	"reno/internal/sweep"
	"reno/internal/workload"
	"reno/metrics"
)

// Figure is one table or figure of the paper's evaluation.
type Figure struct {
	Key   string // renobench's -fig value
	Title string // section header
	Run   func(ctx context.Context, w io.Writer, opts Options)
}

// Figures lists every table and figure in the order renobench prints them.
var Figures = []Figure{
	{"mix", "Instruction mix (Section 4.2)", TableMix},
	{"8", "Figure 8", Fig8},
	{"9", "Figure 9", Fig9},
	{"10", "Figure 10", Fig10},
	{"11", "Figure 11", Fig11},
	{"12", "Figure 12", Fig12},
	{"cf-latency", "CF fusion-latency ablation (Section 3.3)", CFLatencyAblation},
}

// Fig8 regenerates Figure 8: per-benchmark instruction elimination rates
// (ME / CF / RA+CSE stacks) and speedups, on 4- and 6-wide machines.
func Fig8(ctx context.Context, w io.Writer, opts Options) {
	rs := runGrid(ctx, w, sweep.Grid{
		Benches:        []string{"all"},
		MachineConfigs: sweep.Specs("4w", "6w"),
		RenoConfigs:    sweep.Specs("BASE", "RENO"),
	}, opts)

	for _, suite := range suites {
		elim := &Table{
			Title:   fmt.Sprintf("Figure 8 (top, %s): %% dynamic instructions eliminated or folded", suite.name),
			Columns: []string{"bench", "ME(4)", "CF(4)", "RA+CSE(4)", "tot(4)", "tot(6)"},
		}
		speed := &Table{
			Title:   fmt.Sprintf("Figure 8 (bottom, %s): %% speedup over RENO-less baseline", suite.name),
			Columns: []string{"bench", "speedup(4)", "speedup(6)"},
		}
		var tots4, tots6, sps4, sps6 []float64
		for _, b := range suite.profs {
			r4 := rs.get(b.Name, "4w/RENO")
			r6 := rs.get(b.Name, "6w/RENO")
			if r4 == nil || r6 == nil {
				continue
			}
			elim.AddRow(b.Name,
				F(r4.ElimME), F(r4.ElimCF),
				F(r4.ElimLoads+r4.ElimALU),
				F(r4.ElimTotal), F(r6.ElimTotal))
			sp4 := rs.speedup(b.Name, "4w/BASE", "4w/RENO")
			sp6 := rs.speedup(b.Name, "6w/BASE", "6w/RENO")
			speed.AddRow(b.Name, F(sp4), F(sp6))
			tots4 = append(tots4, r4.ElimTotal)
			tots6 = append(tots6, r6.ElimTotal)
			sps4 = append(sps4, sp4)
			sps6 = append(sps6, sp6)
		}
		elim.AddRow("amean", "", "", "", F(MeanPct(tots4)), F(MeanPct(tots6)))
		speed.AddRow("amean", F(MeanPct(sps4)), F(MeanPct(sps6)))
		elim.Fprint(w)
		fmt.Fprintln(w)
		speed.Fprint(w)
		fmt.Fprintln(w)
	}
}

// Fig9 regenerates Figure 9: critical-path breakdowns for the paper's
// benchmark subset under BASE, ME+CF, and full RENO. The sweep pool has no
// critical-path analyzer, so the grid only resolves the configurations and
// each run goes straight to the pipeline with CPA attached, under ctx and
// opts.Timeout like a sweep run. The runs go through warmEach: each
// benchmark's warmup runs once, and its runs start from the snapshot.
func Fig9(ctx context.Context, w io.Writer, opts Options) {
	sels := [][]string{
		{"crafty", "eon.k", "gap", "gzip", "parser", "perl.s", "vortex", "vpr.r"},
		{"adpcm.de", "epic", "g721.en", "gsm.de", "jpg.de", "mesa.m", "mesa.t", "mpg2.en", "pegw.en"},
	}
	renos := sweep.Specs("BASE", "ME+CF", "RENO")

	// Expansion is bench-major: each benchmark's runs are len(renos)
	// consecutive jobs on the default "4w" machine.
	jobs, err := sweep.Grid{Benches: append(sels[0], sels[1]...), RenoConfigs: renos}.Expand()
	if err != nil {
		panic(err)
	}
	profs := make([]workload.Profile, len(jobs)/len(renos))
	for b := range profs {
		profs[b] = jobs[b*len(renos)].Profile
	}
	type cell struct {
		res *pipeline.Result
		err error
	}
	cells := make([]cell, len(jobs))
	warmErrs := warmEach(ctx, profs, len(renos), opts, func(i int, start *emu.Snapshot) {
		cells[i].res, cells[i].err = runCPA(ctx, jobs[i].Cfg, start, opts)
	})
	if ctx.Err() != nil {
		return
	}

	b := 0 // index into profs
	for _, sel := range sels {
		tb := &Table{
			Title:   "Figure 9: critical-path breakdown (% of critical path)",
			Columns: []string{"bench", "config", "fetch", "alu", "load", "mem", "commit"},
		}
		for end := b + len(sel); b < end; b++ {
			name := profs[b].Name
			if err := warmErrs[b]; err != nil {
				fmt.Fprintf(w, "%s: %v\n", name, err)
				continue
			}
			for i := b * len(renos); i < (b+1)*len(renos); i++ {
				if err := cells[i].err; err != nil {
					fmt.Fprintf(w, "%s/%s: %v\n", name, jobs[i].Config, err)
					continue
				}
				p := cells[i].res.CPA.Percent()
				tb.AddRow(name, jobs[i].Config,
					F(p[cpa.BFetch]), F(p[cpa.BALU]), F(p[cpa.BLoad]), F(p[cpa.BMem]), F(p[cpa.BCommit]))
			}
		}
		tb.Fprint(w)
		fmt.Fprintln(w)
	}
}

// warmEach starts each of profs once (sweep.Start at opts.Scale), and
// calls run(i, start) for every i in [0, len(profs)*per) on sweep.ForEach
// at the pool width, where start is the post-warmup snapshot of benchmark
// i/per. It returns each benchmark's start error; a benchmark that could
// not start, or a run once ctx is done, gets no call.
func warmEach(ctx context.Context, profs []workload.Profile, per int, opts Options, run func(i int, start *emu.Snapshot)) []error {
	warm := make([]func() (*emu.Snapshot, error), len(profs))
	for b, p := range profs {
		warm[b] = sync.OnceValues(func() (*emu.Snapshot, error) {
			return sweep.Start(ctx, p, 0, opts.Scale)
		})
	}
	sweep.ForEach(opts.workers(), len(profs)*per, func(i int) {
		if start, err := warm[i/per](); err == nil && ctx.Err() == nil {
			run(i, start)
		}
	})
	errs := make([]error, len(profs))
	for b := range warm {
		_, errs[b] = warm[b]()
	}
	return errs
}

// runCPA times one Figure 9 run from its program's post-warmup snapshot
// with the critical-path analyzer attached, bounded by opts.Timeout.
func runCPA(ctx context.Context, cfg pipeline.Config, start *emu.Snapshot, opts Options) (*pipeline.Result, error) {
	if opts.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opts.Timeout)
		defer cancel()
	}
	res, err := backend.For(backend.Detailed).Run(ctx, backend.Request{
		Cfg: cfg, Start: start, MaxInsts: opts.MaxInsts, CPAChunk: 50_000,
	})
	if err != nil {
		return nil, err
	}
	return res.Pipe, nil
}

// Fig10 regenerates Figure 10: the division of labor between RENO.CF and
// RENO.CSE+RA — RENO (CF + loads-only IT), RENO + full IT, full integration
// alone, loads-only integration alone — plus the E9 table-bandwidth
// accounting (Section 2.4's 50%/56% claims).
func Fig10(ctx context.Context, w io.Writer, opts Options) {
	rs := runGrid(ctx, w, sweep.Grid{
		Benches:        []string{"all"},
		MachineConfigs: sweep.Specs("4w"),
		RenoConfigs:    sweep.Specs("BASE", "RENO", "RENO+FI", "FullInteg", "LoadsInteg"),
	}, opts)

	for _, suite := range suites {
		tb := &Table{
			Title:   fmt.Sprintf("Figure 10 (%s): %% speedup over baseline", suite.name),
			Columns: []string{"bench", "RENO", "RENO+FullInteg", "FullInteg", "LoadsInteg"},
		}
		cols := []string{"RENO", "RENO+FI", "FullInteg", "LoadsInteg"}
		means := map[string][]float64{}
		for _, b := range suite.profs {
			row := []string{b.Name}
			for _, c := range cols {
				sp := rs.speedup(b.Name, "4w/BASE", "4w/"+c)
				row = append(row, F(sp))
				means[c] = append(means[c], sp)
			}
			tb.AddRow(row...)
		}
		tb.AddRow("avg", F(MeanPct(means["RENO"])), F(MeanPct(means["RENO+FI"])),
			F(MeanPct(means["FullInteg"])), F(MeanPct(means["LoadsInteg"])))
		tb.Fprint(w)
		fmt.Fprintln(w)
	}

	// E9: IT bandwidth accounting. The paper: the loads-only repartition
	// cuts IT size by 50% and accesses by ~56% versus full integration.
	itAccesses := func(r *sweep.Result) uint64 {
		lookups, _ := r.Metrics.Count(metrics.ITLookups)
		inserts, _ := r.Metrics.Count(metrics.ITInserts)
		return lookups + inserts
	}
	var renoAcc, fiAcc uint64
	for _, suite := range suites {
		for _, b := range suite.profs {
			if r := rs.get(b.Name, "4w/RENO"); r != nil {
				renoAcc += itAccesses(r)
			}
			if r := rs.get(b.Name, "4w/RENO+FI"); r != nil {
				fiAcc += itAccesses(r)
			}
		}
	}
	if fiAcc > 0 {
		fmt.Fprintf(w, "IT accesses: RENO (loads-only) %d vs RENO+FullInteg %d: %.0f%% reduction (paper: 56%%; table size halved by construction)\n\n",
			renoAcc, fiAcc, 100*(1-float64(renoAcc)/float64(fiAcc)))
	}
}

// renoAxis is the Figure 11/12 RENO configuration axis: paper labels
// (column headers) paired with their canonical grid config names.
var renoAxis = []struct{ label, cfg string }{
	{"BASE", "BASE"}, {"CF+ME", "ME+CF"}, {"RA+CSE", "RENO"},
}

// relFigure declares a relative-performance figure: one row per machine,
// one column per renoAxis configuration, and in each cell the suite mean of
// the run's performance relative to the base run (100 = parity). The rows'
// machines, in order, are the machine axis of the figure's sweep grid.
type relFigure struct {
	title  string // table title, with a %s for the suite name
	header string // first column header
	base   string // tag (machine/config) of the 100 baseline
	rows   []struct{ label, machine string }
}

// render runs the figure's grid over every benchmark and prints one table
// per suite.
func (f relFigure) render(ctx context.Context, w io.Writer, opts Options) {
	machines := make([]string, len(f.rows))
	for i, r := range f.rows {
		machines[i] = r.machine
	}
	cols := []string{f.header}
	var cfgs []string
	for _, c := range renoAxis {
		cols, cfgs = append(cols, c.label), append(cfgs, c.cfg)
	}
	rs := runGrid(ctx, w, sweep.Grid{
		Benches:        []string{"all"},
		MachineConfigs: sweep.Specs(machines...),
		RenoConfigs:    sweep.Specs(cfgs...),
	}, opts)

	for _, suite := range suites {
		tb := &Table{Title: fmt.Sprintf(f.title, suite.name), Columns: cols}
		for _, r := range f.rows {
			row := []string{r.label}
			for _, c := range renoAxis {
				var vals []float64
				for _, b := range suite.profs {
					vals = append(vals, rs.relPerf(b.Name, f.base, r.machine+"/"+c.cfg))
				}
				row = append(row, F(MeanPct(vals)))
			}
			tb.AddRow(row...)
		}
		tb.Fprint(w)
		fmt.Fprintln(w)
	}
}

// Fig11 regenerates Figure 11: RENO compensating for reduced physical
// register files (top) and reduced issue width (bottom). Values are
// performance relative to the full-size RENO-less baseline (=100).
func Fig11(ctx context.Context, w io.Writer, opts Options) {
	// "4w" is the 160-preg default.
	relFigure{
		title:  "Figure 11 top (%s): relative performance (100 = 160-preg RENO-less baseline)",
		header: "pregs",
		base:   "4w/BASE",
		rows:   []struct{ label, machine string }{{"96", "4w:p96"}, {"112", "4w:p112"}, {"128", "4w:p128"}, {"160", "4w"}},
	}.render(ctx, w, opts)
	relFigure{
		title:  "Figure 11 bottom (%s): relative performance (100 = i3t4 RENO-less baseline)",
		header: "issue",
		base:   "4w:i3t4/BASE",
		rows:   []struct{ label, machine string }{{"i2t2", "4w:i2t2"}, {"i2t3", "4w:i2t3"}, {"i3t4", "4w:i3t4"}},
	}.render(ctx, w, opts)
}

// Fig12 regenerates Figure 12: tolerating a 2-cycle wakeup-select
// scheduling loop. Values relative to the 1-cycle RENO-less baseline.
func Fig12(ctx context.Context, w io.Writer, opts Options) {
	// "4w" has the 1-cycle wakeup-select loop; "4w:s2" stretches it to 2.
	relFigure{
		title:  "Figure 12 (%s): relative performance (100 = 1-cycle-loop RENO-less baseline)",
		header: "schedloop",
		base:   "4w/BASE",
		rows:   []struct{ label, machine string }{{"1c", "4w"}, {"2c", "4w:s2"}},
	}.render(ctx, w, opts)
}

// TableMix regenerates the Section 1/4.2 instruction-mix statistics: the
// dynamic fraction of register moves and register-immediate additions in
// each benchmark's timed region. Every benchmark is warmed once through
// warmEach; a start or emulator fault prints as a "<bench>: <err>" line
// in place of the benchmark's row.
func TableMix(ctx context.Context, w io.Writer, opts Options) {
	var profs []workload.Profile
	for _, suite := range suites {
		profs = append(profs, suite.profs...)
	}
	mixes := make([]mix, len(profs))
	errs := make([]error, len(profs))
	warmErrs := warmEach(ctx, profs, 1, opts, func(i int, start *emu.Snapshot) {
		mixes[i], errs[i] = countMix(ctx, start, opts.MaxInsts)
	})
	if ctx.Err() != nil {
		return
	}

	b := 0 // index into profs
	for _, suite := range suites {
		tb := &Table{
			Title:   fmt.Sprintf("Instruction mix (%s): %% of dynamic instructions", suite.name),
			Columns: []string{"bench", "moves", "reg-imm add", "loads", "stores", "branches"},
		}
		var mvs, ads []float64
		for end := b + len(suite.profs); b < end; b++ {
			m := mixes[b]
			if err := cmp.Or(warmErrs[b], errs[b]); err != nil {
				fmt.Fprintf(w, "%s: %v\n", profs[b].Name, err)
				continue
			}
			if m.total == 0 {
				continue
			}
			pct := func(n float64) float64 { return 100 * n / m.total }
			tb.AddRow(profs[b].Name, F(pct(m.moves)), F(pct(m.adds)),
				F(pct(m.loads)), F(pct(m.stores)), F(pct(m.branches)))
			mvs = append(mvs, pct(m.moves))
			ads = append(ads, pct(m.adds))
		}
		tb.AddRow("amean", F(MeanPct(mvs)), F(MeanPct(ads)), "", "", "")
		tb.Fprint(w)
		fmt.Fprintln(w)
	}
}

// mix counts one timed region's dynamic instructions by kind.
type mix struct{ total, moves, adds, loads, stores, branches float64 }

// countMix counts the instructions a pipeline.Feed hands out from start
// under the run budget maxInsts, as a timed run would see them. It returns
// ctx's error once ctx is done and the emulator's fault if one ends the
// region early.
func countMix(ctx context.Context, start *emu.Snapshot, maxInsts uint64) (mix, error) {
	var m mix
	var d emu.Dyn
	f := pipeline.NewFeed(ctx, start.Machine(), maxInsts)
	defer f.Release()
	for f.Next(&d) {
		if f.Canceled() {
			return m, ctx.Err()
		}
		m.total++
		switch {
		case d.Facts.IsMove():
			m.moves++
		case d.Facts.IsRegImmAdd():
			m.adds++
		}
		switch d.Facts.Class() {
		case isa.ClassLoad:
			m.loads++
		case isa.ClassStore:
			m.stores++
		case isa.ClassBranch:
			m.branches++
		}
	}
	return m, f.Err()
}

// CFLatencyAblation regenerates the Section 3.3 claim: if every fused
// operation costs an extra cycle, RENO.CF keeps most of its advantage
// (the paper: it loses only 20-25% of its relative gain, 1-2% absolute).
func CFLatencyAblation(ctx context.Context, w io.Writer, opts Options) {
	// The inline spec is ME+CF with every fused operation charged an extra
	// cycle; its tag is the registry's base#hash form.
	g := sweep.Grid{
		Version:        2,
		Benches:        []string{"all"},
		MachineConfigs: sweep.Specs("4w"),
		RenoConfigs: []sweep.Spec{{Name: "BASE"}, {Name: "ME+CF"},
			{Raw: json.RawMessage(`{"base":"ME+CF","penalize_all_fusions":true}`)}},
	}
	jobs, err := g.Expand()
	if err != nil {
		panic(err)
	}
	penal := jobs[2].Tag() // bench-major: the first benchmark's third config
	rs := runGrid(ctx, w, g, opts)

	tb := &Table{
		Title:   "CF fusion-latency ablation (Section 3.3): % speedup over baseline",
		Columns: []string{"suite", "CF free fusion", "CF all-fusions+1", "retained"},
	}
	for _, suite := range suites {
		var f, s []float64
		for _, b := range suite.profs {
			f = append(f, rs.speedup(b.Name, "4w/BASE", "4w/ME+CF"))
			s = append(s, rs.speedup(b.Name, "4w/BASE", penal))
		}
		mf, ms := MeanPct(f), MeanPct(s)
		ret := "-"
		if mf > 0 {
			ret = fmt.Sprintf("%.0f%%", 100*ms/mf)
		}
		tb.AddRow(suite.name, F(mf), F(ms), ret)
	}
	tb.Fprint(w)
	fmt.Fprintln(w)
}
