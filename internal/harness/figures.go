package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"io"

	"reno/internal/cpa"
	"reno/internal/emu"
	"reno/internal/isa"
	"reno/internal/pipeline"
	"reno/internal/sweep"
	"reno/internal/workload"
)

// Fig8 regenerates Figure 8: per-benchmark instruction elimination rates
// (ME / CF / RA+CSE stacks) and speedups, on 4- and 6-wide machines.
func Fig8(ctx context.Context, w io.Writer, opts Options) {
	spec, media := Suites()

	rs := runGrid(ctx, w, sweep.Grid{
		Benches:        []string{"all"},
		MachineConfigs: sweep.Specs("4w", "6w"),
		RenoConfigs:    sweep.Specs("BASE", "RENO"),
	}, opts)

	for _, suite := range []struct {
		name  string
		profs []workload.Profile
	}{{"SPECint", spec}, {"MediaBench", media}} {
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
// each run goes straight to the pipeline with CPA attached.
func Fig9(ctx context.Context, w io.Writer, opts Options) {
	specSel := []string{"crafty", "eon.k", "gap", "gzip", "parser", "perl.s", "vortex", "vpr.r"}
	mediaSel := []string{"adpcm.de", "epic", "g721.en", "gsm.de", "jpg.de", "mesa.m", "mesa.t", "mpg2.en", "pegw.en"}
	renos := sweep.Specs("BASE", "ME+CF", "RENO")

	for _, sel := range [][]string{specSel, mediaSel} {
		// Expansion is bench-major: each benchmark's runs are len(renos)
		// consecutive jobs on the default "4w" machine.
		jobs, err := sweep.Grid{Benches: sel, RenoConfigs: renos}.Expand()
		if err != nil {
			panic(err)
		}
		tb := &Table{
			Title:   "Figure 9: critical-path breakdown (% of critical path)",
			Columns: []string{"bench", "config", "fetch", "alu", "load", "mem", "commit"},
		}
		for i := 0; i < len(jobs); i += len(renos) {
			if ctx.Err() != nil {
				return
			}
			name := jobs[i].Profile.Name
			prog := workload.MustBuild(workload.Scale(jobs[i].Profile, opts.Scale))
			warm, err := prog.WarmupCount()
			if err != nil {
				fmt.Fprintf(w, "%s: %v\n", name, err)
				continue
			}
			for _, j := range jobs[i : i+len(renos)] {
				res, _, err := pipeline.RunProgramCPA(j.Cfg, prog.Code, warm, opts.MaxInsts, 50_000)
				if err != nil {
					fmt.Fprintf(w, "%s/%s: %v\n", name, j.Config, err)
					continue
				}
				p := res.CPA.Percent()
				tb.AddRow(name, j.Config,
					F(p[cpa.BFetch]), F(p[cpa.BALU]), F(p[cpa.BLoad]), F(p[cpa.BMem]), F(p[cpa.BCommit]))
			}
		}
		tb.Fprint(w)
		fmt.Fprintln(w)
	}
}

// Fig10 regenerates Figure 10: the division of labor between RENO.CF and
// RENO.CSE+RA — RENO (CF + loads-only IT), RENO + full IT, full integration
// alone, loads-only integration alone — plus the E9 table-bandwidth
// accounting (Section 2.4's 50%/56% claims).
func Fig10(ctx context.Context, w io.Writer, opts Options) {
	spec, media := Suites()
	all := append(append([]workload.Profile{}, spec...), media...)

	rs := runGrid(ctx, w, sweep.Grid{
		Benches:        []string{"all"},
		MachineConfigs: sweep.Specs("4w"),
		RenoConfigs:    sweep.Specs("BASE", "RENO", "RENO+FI", "FullInteg", "LoadsInteg"),
	}, opts)

	for _, suite := range []struct {
		name  string
		profs []workload.Profile
	}{{"SPECint", spec}, {"MediaBench", media}} {
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
	var renoAcc, fiAcc uint64
	for _, b := range all {
		if r := rs.get(b.Name, "4w/RENO"); r != nil {
			renoAcc += r.Pipeline.ITLookups + r.Pipeline.ITInserts
		}
		if r := rs.get(b.Name, "4w/RENO+FI"); r != nil {
			fiAcc += r.Pipeline.ITLookups + r.Pipeline.ITInserts
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

// renoAxisHeaders builds a table header row from the axis labels.
func renoAxisHeaders(first string) []string {
	cols := []string{first}
	for _, c := range renoAxis {
		cols = append(cols, c.label)
	}
	return cols
}

// Fig11 regenerates Figure 11: RENO compensating for reduced physical
// register files (top) and reduced issue width (bottom). Values are
// performance relative to the full-size RENO-less baseline (=100).
func Fig11(ctx context.Context, w io.Writer, opts Options) {
	spec, media := Suites()

	// Top: register file sweep ("4w" is the 160-preg default).
	pregMachines := map[int]string{96: "4w:p96", 112: "4w:p112", 128: "4w:p128", 160: "4w"}
	rs := runGrid(ctx, w, sweep.Grid{
		Benches:        []string{"all"},
		MachineConfigs: sweep.Specs("4w:p96", "4w:p112", "4w:p128", "4w"),
		RenoConfigs:    sweep.Specs("BASE", "ME+CF", "RENO"),
	}, opts)

	for _, suite := range []struct {
		name  string
		profs []workload.Profile
	}{{"SPECint", spec}, {"MediaBench", media}} {
		tb := &Table{
			Title:   fmt.Sprintf("Figure 11 top (%s): relative performance (100 = 160-preg RENO-less baseline)", suite.name),
			Columns: renoAxisHeaders("pregs"),
		}
		for _, n := range []int{96, 112, 128, 160} {
			row := []string{fmt.Sprint(n)}
			for _, c := range renoAxis {
				var vals []float64
				for _, b := range suite.profs {
					vals = append(vals, rs.relPerf(b.Name, "4w/BASE", pregMachines[n]+"/"+c.cfg))
				}
				row = append(row, F(MeanPct(vals)))
			}
			tb.AddRow(row...)
		}
		tb.Fprint(w)
		fmt.Fprintln(w)
	}

	// Bottom: issue width sweep.
	widths := []string{"i2t2", "i2t3", "i3t4"}
	rs = runGrid(ctx, w, sweep.Grid{
		Benches:        []string{"all"},
		MachineConfigs: sweep.Specs("4w:i2t2", "4w:i2t3", "4w:i3t4"),
		RenoConfigs:    sweep.Specs("BASE", "ME+CF", "RENO"),
	}, opts)

	for _, suite := range []struct {
		name  string
		profs []workload.Profile
	}{{"SPECint", spec}, {"MediaBench", media}} {
		tb := &Table{
			Title:   fmt.Sprintf("Figure 11 bottom (%s): relative performance (100 = i3t4 RENO-less baseline)", suite.name),
			Columns: renoAxisHeaders("issue"),
		}
		for _, wd := range widths {
			row := []string{wd}
			for _, c := range renoAxis {
				var vals []float64
				for _, b := range suite.profs {
					vals = append(vals, rs.relPerf(b.Name, "4w:i3t4/BASE", "4w:"+wd+"/"+c.cfg))
				}
				row = append(row, F(MeanPct(vals)))
			}
			tb.AddRow(row...)
		}
		tb.Fprint(w)
		fmt.Fprintln(w)
	}
}

// Fig12 regenerates Figure 12: tolerating a 2-cycle wakeup-select
// scheduling loop. Values relative to the 1-cycle RENO-less baseline.
func Fig12(ctx context.Context, w io.Writer, opts Options) {
	spec, media := Suites()

	// "4w" has the 1-cycle wakeup-select loop; "4w:s2" stretches it to 2.
	loopMachines := map[int]string{1: "4w", 2: "4w:s2"}
	rs := runGrid(ctx, w, sweep.Grid{
		Benches:        []string{"all"},
		MachineConfigs: sweep.Specs("4w", "4w:s2"),
		RenoConfigs:    sweep.Specs("BASE", "ME+CF", "RENO"),
	}, opts)

	for _, suite := range []struct {
		name  string
		profs []workload.Profile
	}{{"SPECint", spec}, {"MediaBench", media}} {
		tb := &Table{
			Title:   fmt.Sprintf("Figure 12 (%s): relative performance (100 = 1-cycle-loop RENO-less baseline)", suite.name),
			Columns: renoAxisHeaders("schedloop"),
		}
		for _, loop := range []int{1, 2} {
			row := []string{fmt.Sprintf("%dc", loop)}
			for _, c := range renoAxis {
				var vals []float64
				for _, b := range suite.profs {
					vals = append(vals, rs.relPerf(b.Name, "4w/BASE", loopMachines[loop]+"/"+c.cfg))
				}
				row = append(row, F(MeanPct(vals)))
			}
			tb.AddRow(row...)
		}
		tb.Fprint(w)
		fmt.Fprintln(w)
	}
}

// TableMix regenerates the Section 1/4.2 instruction-mix statistics: the
// dynamic fraction of register moves and register-immediate additions.
func TableMix(ctx context.Context, w io.Writer, opts Options) {
	spec, media := Suites()
	for _, suite := range []struct {
		name  string
		profs []workload.Profile
	}{{"SPECint", spec}, {"MediaBench", media}} {
		tb := &Table{
			Title:   fmt.Sprintf("Instruction mix (%s): %% of dynamic instructions", suite.name),
			Columns: []string{"bench", "moves", "reg-imm add", "loads", "stores", "branches"},
		}
		var mvs, ads []float64
		for _, p := range suite.profs {
			if ctx.Err() != nil {
				return
			}
			prog := workload.MustBuild(workload.Scale(p, opts.Scale))
			warm, err := prog.WarmupCount()
			if err != nil {
				continue
			}
			var total, mv, ad, ld, st, br float64
			m := emu.New(prog.Code)
			limit := warm + opts.MaxInsts
			if opts.MaxInsts == 0 {
				limit = ^uint64(0)
			}
			_ = m.Trace(limit, func(d emu.Dyn) bool {
				if m.ICount <= warm {
					return true
				}
				total++
				switch {
				case isa.IsMove(d.Inst):
					mv++
				case isa.IsRegImmAdd(d.Inst):
					ad++
				}
				switch isa.ClassOf(d.Inst) {
				case isa.ClassLoad:
					ld++
				case isa.ClassStore:
					st++
				case isa.ClassBranch:
					br++
				}
				return true
			})
			if total == 0 {
				continue
			}
			tb.AddRow(p.Name, F(100*mv/total), F(100*ad/total),
				F(100*ld/total), F(100*st/total), F(100*br/total))
			mvs = append(mvs, 100*mv/total)
			ads = append(ads, 100*ad/total)
		}
		tb.AddRow("amean", F(MeanPct(mvs)), F(MeanPct(ads)), "", "", "")
		tb.Fprint(w)
		fmt.Fprintln(w)
	}
}

// CFLatencyAblation regenerates the Section 3.3 claim: if every fused
// operation costs an extra cycle, RENO.CF keeps most of its advantage
// (the paper: it loses only 20-25% of its relative gain, 1-2% absolute).
func CFLatencyAblation(ctx context.Context, w io.Writer, opts Options) {
	spec, media := Suites()

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
	for _, suite := range []struct {
		name  string
		profs []workload.Profile
	}{{"SPECint", spec}, {"MediaBench", media}} {
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
