// Package pipeline implements the cycle-level dynamically scheduled
// superscalar processor model of Section 4.1, with RENO integrated into its
// two-stage rename pipeline.
//
// The model is trace-driven: the functional emulator supplies the committed
// dynamic instruction stream (with resolved branch outcomes, addresses, and
// values), and the pipeline times it. Branch mispredictions charge the
// front-end redirect; memory-ordering violations and failed retirement
// re-executions of integrated loads squash and replay in-flight work,
// exercising RENO's rollback machinery. Wrong-path instructions do not
// occupy resources (the standard fidelity compromise of trace-driven
// simulation).
//
// Pipeline shape (13 stages, Section 4.1): 1 branch predict, 2 instruction
// cache, 1 decode, 2 rename, 1 dispatch, 1 schedule, 2 register read,
// 1 execute, 1 complete, 1 retire.
//
//reno:deterministic
package pipeline

import (
	"fmt"
	"strconv"

	"reno/internal/reno"
)

// Config sizes the simulated core. Every field carries a JSON tag: a Config
// is fully declarative and round-trips through JSON, which is how inline
// machine specs in v2 sweep grids override registry presets field-by-field
// (see internal/machine and docs/machines.md).
//
//reno:config
type Config struct {
	Name string `json:"name"`

	FetchWidth  int `json:"fetch_width"`
	RenameWidth int `json:"rename_width"`
	CommitWidth int `json:"commit_width"`

	// IssueTotal bounds instructions issued per cycle; the per-class
	// limits model functional unit and port counts.
	IssueTotal int `json:"issue_total"`
	IntALUs    int `json:"int_alus"`
	FPUnits    int `json:"fp_units"`
	LoadPorts  int `json:"load_ports"`
	StorePorts int `json:"store_ports"`

	IQSize  int `json:"iq_size"`
	ROBSize int `json:"rob_size"`
	LQSize  int `json:"lq_size"`
	SQSize  int `json:"sq_size"`

	// SchedLoop is the wakeup-select loop latency (Section 4.5 / Figure
	// 12): 1 allows back-to-back dependent single-cycle ops; 2 makes every
	// single-cycle op look like a 2-cycle op to its dependents.
	SchedLoop int `json:"sched_loop"`

	// RetireQueue is the depth (in cycles of backlog) of the store/
	// re-execution retirement queue. Stores and integrated-load
	// re-executions book the data cache's store-retirement port through
	// this queue; commit stalls only when the backlog exceeds the queue
	// (the paper's "dependence-free" pre-retirement re-execution has low
	// impact precisely because it is decoupled this way, §2.2).
	RetireQueue int `json:"retire_queue"`

	// FrontLat is the fetch-to-rename pipe depth (bpred + I$ + decode).
	FrontLat int `json:"front_lat"`
	// RedirectPenalty is the branch-misprediction refetch penalty beyond
	// branch resolution.
	RedirectPenalty int `json:"redirect_penalty"`

	// Latencies by operation group.
	IntLat    int `json:"int_lat"`
	MulLat    int `json:"mul_lat"`
	DivLat    int `json:"div_lat"`
	FPLat     int `json:"fp_lat"`
	BranchLat int `json:"branch_lat"`

	Reno reno.Config `json:"reno"`

	// MaxInsts bounds the simulated instruction count (0 = run to halt).
	//lint:ignore confighygiene 0 means run to halt; every uint64 value is a legal bound
	MaxInsts uint64 `json:"max_insts,omitempty"`
	// SkipInsts fast-forwards functionally before timing starts (warmup).
	//lint:ignore confighygiene 0 means no warmup skip; every uint64 value is legal
	SkipInsts uint64 `json:"skip_insts,omitempty"`
}

// Validate reports the first structural problem that would make the
// configuration unsimulatable (or silently meaningless), with enough context
// to fix the offending field. Field names in messages are the JSON tags, so
// errors map directly onto spec files.
func (c Config) Validate() error {
	pos := func(field string, v int) error {
		if v < 1 {
			return fmt.Errorf("%s must be >= 1, got %d", field, v)
		}
		return nil
	}
	for _, f := range []struct {
		name string
		v    int
	}{
		{"fetch_width", c.FetchWidth},
		{"rename_width", c.RenameWidth},
		{"commit_width", c.CommitWidth},
		{"issue_total", c.IssueTotal},
		{"int_alus", c.IntALUs},
		{"fp_units", c.FPUnits},
		{"load_ports", c.LoadPorts},
		{"store_ports", c.StorePorts},
		{"iq_size", c.IQSize},
		{"rob_size", c.ROBSize},
		{"lq_size", c.LQSize},
		{"sq_size", c.SQSize},
		{"sched_loop", c.SchedLoop},
		{"retire_queue", c.RetireQueue},
		{"front_lat", c.FrontLat},
		{"int_lat", c.IntLat},
		{"mul_lat", c.MulLat},
		{"div_lat", c.DivLat},
		{"fp_lat", c.FPLat},
		{"branch_lat", c.BranchLat},
	} {
		if err := pos(f.name, f.v); err != nil {
			return err
		}
	}
	if c.RedirectPenalty < 0 {
		return fmt.Errorf("redirect_penalty must be >= 0, got %d", c.RedirectPenalty)
	}
	if c.IQSize > c.ROBSize {
		return fmt.Errorf("iq_size (%d) exceeds rob_size (%d): queued instructions all hold ROB entries", c.IQSize, c.ROBSize)
	}
	if c.IssueTotal < c.IntALUs {
		return fmt.Errorf("issue_total (%d) is below int_alus (%d): the extra ALUs can never issue", c.IssueTotal, c.IntALUs)
	}
	if err := c.Reno.Validate(); err != nil {
		return fmt.Errorf("reno: %w", err)
	}
	return nil
}

// FourWide returns the paper's baseline 4-wide machine: 4-wide
// fetch/issue/commit; up to 3 integer ops, 1 FP op, 1 load, and 1 store
// issued per cycle; 128-entry ROB, 48-entry load buffer, 24-entry store
// buffer, 50-entry issue queue, 160 physical registers.
func FourWide(rc reno.Config) Config {
	if rc.PhysRegs == 0 {
		rc.PhysRegs = 160
	}
	return Config{
		Name:            "4-wide",
		FetchWidth:      4,
		RenameWidth:     4,
		CommitWidth:     4,
		IssueTotal:      4,
		IntALUs:         3,
		FPUnits:         1,
		LoadPorts:       1,
		StorePorts:      1,
		IQSize:          50,
		ROBSize:         128,
		LQSize:          48,
		SQSize:          24,
		RetireQueue:     8,
		SchedLoop:       1,
		FrontLat:        4,
		RedirectPenalty: 8,
		IntLat:          1,
		MulLat:          7,
		DivLat:          20,
		FPLat:           4,
		BranchLat:       1,
		Reno:            rc,
	}
}

// SixWide returns the paper's 6-wide configuration: 6-wide
// fetch/issue/commit issuing up to 4 integer, 2 FP, 2 load, and 1 store
// operations per cycle.
func SixWide(rc reno.Config) Config {
	c := FourWide(rc)
	c.Name = "6-wide"
	c.FetchWidth = 6
	c.RenameWidth = 6
	c.CommitWidth = 6
	c.IssueTotal = 6
	c.IntALUs = 4
	c.FPUnits = 2
	c.LoadPorts = 2
	c.StorePorts = 1
	return c
}

// WithIssue returns c narrowed to the given integer-ALU count and total
// issue width (the Figure 11 "i2t2 / i2t3 / i3t4" sweep).
func (c Config) WithIssue(intALUs, total int) Config {
	c.IntALUs = intALUs
	c.IssueTotal = total
	c.Name = c.Name + "-i" + strconv.Itoa(intALUs) + "t" + strconv.Itoa(total)
	return c
}

// WithPhysRegs returns c with a different physical register file size
// (the Figure 11 register sweep).
func (c Config) WithPhysRegs(n int) Config {
	c.Reno.PhysRegs = n
	c.Name = c.Name + "-p" + strconv.Itoa(n)
	return c
}

// WithSchedLoop returns c with the given wakeup-select loop latency
// (Figure 12).
func (c Config) WithSchedLoop(n int) Config {
	c.SchedLoop = n
	c.Name = c.Name + "-s" + strconv.Itoa(n)
	return c
}
