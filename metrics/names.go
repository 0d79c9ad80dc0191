package metrics

// Stable metric names. A name, its kind, and its meaning are frozen once
// shipped under a schema version: tools may key on these strings forever.
// New metrics may be added freely; renaming or retyping one requires a new
// schema version (docs/metrics.md).
//
// Naming convention: lower_snake_case segments joined by dots, ordered
// subsystem → quantity → qualifier ("cache.l1d.miss_rate"). Percentages say
// so in the meaning, not the name; counters name the counted event.
const (
	// Core performance.
	PipelineCycles = "pipeline.cycles" // counter: elapsed simulated cycles
	PipelineInsts  = "pipeline.insts"  // counter: committed instructions
	PipelineIPC    = "pipeline.ipc"    // gauge: insts / cycles

	// RENO elimination percentages (of committed instructions, Figure 8).
	RenoElimME    = "reno.elim.me"    // gauge: moves eliminated, %
	RenoElimCF    = "reno.elim.cf"    // gauge: reg-imm additions folded, %
	RenoElimLoads = "reno.elim.loads" // gauge: loads integrated (CSE+RA), %
	RenoElimALU   = "reno.elim.alu"   // gauge: ALU ops integrated, %
	RenoElimTotal = "reno.elim.total" // gauge: all eliminations, %

	// RENO raw event counts.
	RenoRenamed           = "reno.renamed"               // counter: instructions renamed
	RenoElimMECount       = "reno.eliminated.me"         // counter
	RenoElimCFCount       = "reno.eliminated.cf"         // counter
	RenoElimCSELoadCount  = "reno.eliminated.cse_load"   // counter
	RenoElimRALoadCount   = "reno.eliminated.ra_load"    // counter
	RenoElimCSEALUCount   = "reno.eliminated.cse_alu"    // counter
	RenoFusedOps          = "reno.fused.ops"             // counter: fused 3-input ops executed
	RenoFusedPenalized    = "reno.fused.penalized"       // counter: fusions charged a latency penalty
	RenoFoldCancelOvf     = "reno.fold_cancel.overflow"  // counter: folds canceled on displacement overflow
	RenoFoldCancelGroup   = "reno.fold_cancel.group_dep" // counter: folds canceled on same-group dependence
	RenoZeroSourceFolds   = "reno.zero_source_folds"     // counter: folds against the zero register
	RenoRenameStallsPregs = "reno.rename_stall_pregs"    // counter: rename stalls on register exhaustion

	// Branch prediction.
	BpredAccuracy    = "bpred.accuracy"    // ratio: predicted control transfers resolved correctly
	BpredMispredicts = "bpred.mispredicts" // counter

	// Cache hierarchy.
	CacheL1DMissRate = "cache.l1d.miss_rate" // ratio
	CacheL2MissRate  = "cache.l2.miss_rate"  // ratio

	// Memory-ordering and re-execution machinery.
	PipelineOrderViolations = "pipeline.order_violations" // counter: load/store order squashes
	PipelineReexecFails     = "pipeline.reexec_fails"     // counter: integrated-load re-execution mismatches
	PipelineReplays         = "pipeline.replays"          // counter: squash-replay events

	// Resource telemetry.
	PipelineIQOccAvg       = "pipeline.iq_occ.avg"           // gauge: mean issue-queue occupancy
	PipelinePregsAvg       = "pipeline.pregs.avg"            // gauge: mean physical registers in use
	PipelinePregsMax       = "pipeline.pregs.max"            // gauge: peak physical registers in use
	PipelineFetchStalls    = "pipeline.fetch_stall_cycles"   // counter
	PipelineStorePortConfl = "pipeline.store_port_conflicts" // counter
	ITLookups              = "it.lookups"                    // counter: integration-table lookups
	ITInserts              = "it.inserts"                    // counter
	ITHits                 = "it.hits"                       // counter

	// Critical-path breakdown (present only when the analyzer is attached).
	CPAFetchPct  = "cpa.pct.fetch"  // gauge: % of critical path in fetch
	CPAALUPct    = "cpa.pct.alu"    // gauge
	CPALoadPct   = "cpa.pct.load"   // gauge
	CPAMemPct    = "cpa.pct.mem"    // gauge
	CPACommitPct = "cpa.pct.commit" // gauge

	// Host-side (non-deterministic) run telemetry; stable emission modes
	// zero these.
	RunWallNS         = "run.wall_ns"           // counter: wall-clock nanoseconds simulating
	RunSimInstsPerSec = "run.sim_insts_per_sec" // gauge: simulator throughput

	// Sweep summary.
	SweepRuns          = "sweep.runs"           // counter
	SweepFailed        = "sweep.failed"         // counter
	SweepInsts         = "sweep.insts"          // counter: committed instructions across runs
	SweepCycles        = "sweep.cycles"         // counter: simulated cycles across runs
	SweepWallNS        = "sweep.wall_ns"        // counter: summed per-run wall time
	SweepMeanIPC       = "sweep.mean_ipc"       // gauge
	SweepAuditWarnings = "sweep.audit_warnings" // counter: architectural-equivalence violations
)
