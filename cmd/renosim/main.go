// Command renosim runs one benchmark (or an assembly file) on one simulated
// processor configuration and prints detailed statistics — or, with -json,
// emits them as a reno.metrics/v1 envelope (see docs/metrics.md).
//
// It is a thin flag parser over the public reno/sim facade: everything it
// can do, an embedding program can do through sim.Load and Program.Run.
//
// Usage:
//
//	renosim -bench gzip -config RENO
//	renosim -bench gsm.de -config ME+CF -machine 6w:p112:s2
//	renosim -bench gzip -machine 4w:p128:i2t3 -json
//	renosim -asm prog.s -config BASE
//	renosim -list
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"reno/metrics"
	"reno/sim"
)

func configNames() []string {
	var names []string
	for _, c := range sim.Configs() {
		names = append(names, c.Name)
	}
	return names
}

func main() {
	bench := flag.String("bench", "", "benchmark profile name or micro.<kernel> (see -list)")
	asmFile := flag.String("asm", "", "assembly file to simulate instead of a benchmark")
	config := flag.String("config", "RENO", "RENO configuration: "+strings.Join(configNames(), ", ")+", or an inline JSON spec object")
	machineSpec := flag.String("machine", "4w", "machine spec: a base (4w, 6w) with optional modifiers p<pregs>, i<int ALUs>t<total issue>, s<sched loop> (e.g. 6w:p112:i3t4:s2), or an inline JSON spec object")
	backend := flag.String("backend", "", "simulation backend: detailed (default) or functional")
	seed := flag.Int64("seed", 0, "workload seed offset (0 = canonical program)")
	scale := flag.Float64("scale", 1.0, "workload scale factor")
	maxInsts := flag.Uint64("max", 300_000, "timed instruction budget (0 = to completion)")
	withCPA := flag.Bool("cpa", false, "attach the critical-path analyzer (detailed backend only)")
	jsonOut := flag.Bool("json", false, "emit the result as a reno.metrics/v1 envelope on stdout")
	list := flag.Bool("list", false, "list benchmark profiles, machine specs, and RENO configs, then exit")
	flag.Parse()

	if *list {
		if err := sim.ListRegistered().WriteText(os.Stdout); err != nil {
			fatalf("%v", err)
		}
		return
	}

	spec := sim.Spec{
		Bench:   *bench,
		Machine: *machineSpec,
		Config:  *config,
		Backend: *backend,
		Seed:    *seed,
		Scale:   *scale,
	}

	var p *sim.Program
	var err error
	switch {
	case *asmFile != "":
		src, rerr := os.ReadFile(*asmFile)
		if rerr != nil {
			fatalf("%v", rerr)
		}
		p, err = sim.LoadAsm(string(src), spec)
	case *bench != "":
		p, err = sim.Load(spec)
	default:
		fatalf("need -bench or -asm")
	}
	if err != nil {
		fatalf("%v", err)
	}

	opts := sim.Options{MaxInsts: *maxInsts}
	if *withCPA {
		opts.CPAChunk = 50_000
	}
	res, err := p.Run(opts)
	if err != nil {
		fatalf("%v", err)
	}

	if *jsonOut {
		rep := res.Report()
		rep.Tool = "renosim"
		if err := rep.Encode(os.Stdout); err != nil {
			fatalf("%v", err)
		}
		return
	}
	printText(p, res)
}

// printText renders the run as the classic detailed-statistics listing,
// reading everything from the unified metric set.
func printText(p *sim.Program, res *sim.Result) {
	set := res.Metrics()
	count := func(name string) uint64 { v, _ := set.Count(name); return v }
	value := func(name string) float64 { v, _ := set.Value(name); return v }

	mi := p.Machine()
	fmt.Printf("config            %s / %s / %d pregs / sched %d\n", mi.Name, res.Tag, mi.PhysRegs, mi.SchedLoop)
	if b := p.Backend(); b != "detailed" {
		fmt.Printf("backend           %s (timing not modeled)\n", b)
	}
	fmt.Printf("instructions      %d\n", res.Insts)
	fmt.Printf("cycles            %d\n", res.Cycles)
	fmt.Printf("IPC               %.3f\n", res.IPC)
	if res.StopReason != "" {
		fmt.Printf("stopped on        %s\n", res.StopReason)
	}
	fmt.Printf("eliminated        %.1f%% (ME %.1f%% | CF %.1f%% | loads %.1f%% | alu %.1f%%)\n",
		value(metrics.RenoElimTotal), value(metrics.RenoElimME), value(metrics.RenoElimCF),
		value(metrics.RenoElimLoads), value(metrics.RenoElimALU))
	fmt.Printf("fused ops         %d (penalized %d)\n",
		count(metrics.RenoFusedOps), count(metrics.RenoFusedPenalized))
	fmt.Printf("fold cancels      overflow %d, same-group dependence %d\n",
		count(metrics.RenoFoldCancelOvf), count(metrics.RenoFoldCancelGroup))
	fmt.Printf("branch accuracy   %.3f (%d mispredicts)\n",
		value(metrics.BpredAccuracy), count(metrics.BpredMispredicts))
	fmt.Printf("L1D/L2 miss rate  %.3f / %.3f\n",
		value(metrics.CacheL1DMissRate), value(metrics.CacheL2MissRate))
	fmt.Printf("order violations  %d; reexec mismatches %d; replays %d\n",
		count(metrics.PipelineOrderViolations), count(metrics.PipelineReexecFails), count(metrics.PipelineReplays))
	fmt.Printf("avg IQ occupancy  %.1f / %d\n", value(metrics.PipelineIQOccAvg), mi.IQSize)
	fmt.Printf("avg/max pregs     %.1f / %.0f (of %d)\n",
		value(metrics.PipelinePregsAvg), value(metrics.PipelinePregsMax), mi.PhysRegs)
	if n := count(metrics.ITLookups); n > 0 {
		fmt.Printf("IT                %d lookups, %d hits, %d inserts\n",
			n, count(metrics.ITHits), count(metrics.ITInserts))
	}
	if _, ok := set.Lookup(metrics.CPAFetchPct); ok {
		fmt.Printf("critical path     fetch %.1f%% alu %.1f%% load %.1f%% mem %.1f%% commit %.1f%%\n",
			value(metrics.CPAFetchPct), value(metrics.CPAALUPct), value(metrics.CPALoadPct),
			value(metrics.CPAMemPct), value(metrics.CPACommitPct))
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "renosim: "+format+"\n", args...)
	os.Exit(1)
}
