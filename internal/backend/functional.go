package backend

import (
	"context"
	"fmt"

	"reno/internal/elim"
	"reno/internal/emu"
	"reno/internal/pipeline"
)

// functionalBackend executes the program on the emulator and drives the
// elimination engine over the committed stream — no timing model at all.
// Result.Pipe carries instruction counts, elimination statistics, and
// resource telemetry; Cycles and IPC are zero.
type functionalBackend struct{}

func (functionalBackend) Kind() Kind { return Functional }

// Run is RunGroup with one member.
func (functionalBackend) Run(ctx context.Context, req Request) (*Result, error) {
	res, errs := RunGroup(ctx, req, []pipeline.Config{req.Cfg})
	return res[0], errs[0]
}

// chunkLen is how many trace records the feed steps before the group's
// engines decide them: 256 records of 64 B (16 KB) stay cache-resident
// while the emulator fills them and while each engine drains them in turn.
const chunkLen = 256

// RunGroup runs one functional cell per configuration in cfgs over a
// single trace feed of the program and budget that req names (its Cfg and
// Opts are not read): the emulator steps and hashes the stream once, and
// each configuration's elimination engine decides every record of it. A
// configuration's decisions depend only on the stream and on itself
// (internal/elim), so member i's result and error are exactly what Run
// returns for req with cfgs[i] as its Cfg. An invalid configuration or an
// engine error fails only its own member; a cancellation stops every
// member at the same instruction, each with its partial result and ctx's
// error.
func RunGroup(ctx context.Context, req Request, cfgs []pipeline.Config) ([]*Result, []error) {
	res := make([]*Result, len(cfgs))
	errs := make([]error, len(cfgs))
	live := 0
	for i, cfg := range cfgs {
		if errs[i] = validate(cfg); errs[i] == nil {
			live++
		}
	}
	if live == 0 {
		return res, errs
	}
	f, err := feed(ctx, req)
	if err != nil {
		fail(errs, err)
		return res, errs
	}
	engines := make([]*elim.Engine, len(cfgs))
	for i, cfg := range cfgs {
		// A configuration with no elimination mechanism decides every
		// instruction conventionally and counts nothing: it needs no
		// engine, so baseline screening costs only the shared feed.
		if errs[i] == nil && cfg.Reno.AnyEnabled() {
			engines[i] = elim.New(cfg.Reno, cfg.ROBSize, cfg.RenameWidth)
		}
	}
	insts, canceled := drive(f, engines, errs, make([]emu.Dyn, chunkLen))
	if err := f.Err(); err != nil {
		fail(errs, fmt.Errorf("backend trace feed: %w", err))
		return res, errs
	}
	var stop string
	switch {
	case canceled:
		stop = "canceled"
	case f.Spent():
		stop = "max-insts"
	}
	arch, commit := f.ArchHash(), f.CommitHash()
	for i, cfg := range cfgs {
		if errs[i] != nil {
			continue
		}
		r := &pipeline.Result{Config: cfg, StopReason: stop, Insts: insts}
		if eng := engines[i]; eng != nil {
			// Untimed runs never squash, so every decided instruction
			// commits: the engine's rename-time statistics are exact
			// commit tallies.
			r.SetEngineStats(eng)
			r.ReexecFails = r.Reno.ReexecFails
		}
		r.Derive()
		res[i] = &Result{Pipe: r, ArchHash: arch, CommitHash: commit}
		if canceled {
			errs[i] = ctx.Err()
		}
	}
	return res, errs
}

// drive fills chunk from f until the feed ends or its context is done,
// and has the group's engines decide each chunk (decide). It polls the
// context before each record, as a run that decides each record as the
// feed hands it out would, so both stop at the same instruction. It
// returns the number of instructions the feed handed out and whether its
// context stopped it.
//
//reno:hotpath
func drive(f *pipeline.Feed, engines []*elim.Engine, errs []error, chunk []emu.Dyn) (insts uint64, canceled bool) {
	for {
		n := 0
		for ; n < len(chunk); n++ {
			if canceled = f.Canceled(); canceled || !f.Next(&chunk[n]) {
				break
			}
		}
		decide(engines, errs, chunk[:n])
		insts += uint64(n)
		if canceled || n < len(chunk) {
			return insts, canceled
		}
	}
}

// decide has every engine of a member still running (errs[i] nil) decide
// recs in order, one engine after another. An engine's error ends only
// its own member.
//
//reno:hotpath
func decide(engines []*elim.Engine, errs []error, recs []emu.Dyn) {
	for i, eng := range engines {
		if eng == nil || errs[i] != nil {
			continue
		}
		for k := range recs {
			if _, _, err := eng.Next(&recs[k]); err != nil {
				errs[i] = err
				break
			}
		}
	}
}

// fail sets err for every member that has not failed already.
func fail(errs []error, err error) {
	for i := range errs {
		if errs[i] == nil {
			errs[i] = err
		}
	}
}
