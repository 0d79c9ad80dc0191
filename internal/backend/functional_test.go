package backend

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"reno/internal/elim"
	"reno/internal/emu"
	"reno/internal/isa"
	"reno/internal/machine"
	"reno/internal/pipeline"
	"reno/internal/workload"
)

// oneByOne is the functional run drained one record at a time, each
// decided as soon as the feed hands it out: the loop RunGroup replaced,
// kept as its oracle.
func oneByOne(ctx context.Context, req Request) (*Result, error) {
	if err := validate(req.Cfg); err != nil {
		return nil, err
	}
	f, err := feed(ctx, req)
	if err != nil {
		return nil, err
	}
	var eng *elim.Engine
	if req.Cfg.Reno.AnyEnabled() {
		eng = elim.New(req.Cfg.Reno, req.Cfg.ROBSize, req.Cfg.RenameWidth)
	}
	var insts uint64
	var d emu.Dyn
	canceled := f.Canceled()
	for ; !canceled && f.Next(&d); canceled = f.Canceled() {
		if eng != nil {
			if _, _, err := eng.Next(&d); err != nil {
				return nil, err
			}
		}
		insts++
	}
	if err := f.Err(); err != nil {
		return nil, fmt.Errorf("backend trace feed: %w", err)
	}
	r := &pipeline.Result{Config: req.Cfg, Insts: insts}
	switch {
	case canceled:
		r.StopReason = "canceled"
	case f.Spent():
		r.StopReason = "max-insts"
	}
	if eng != nil {
		r.SetEngineStats(eng)
		r.ReexecFails = r.Reno.ReexecFails
	}
	r.Derive()
	res := &Result{Pipe: r, ArchHash: f.ArchHash(), CommitHash: f.CommitHash()}
	if canceled {
		return res, ctx.Err()
	}
	return res, nil
}

// warmStart builds bench at scale and returns its post-warmup snapshot.
func warmStart(t *testing.T, bench string, scale float64) *emu.Snapshot {
	t.Helper()
	prof, ok := workload.ByName(bench)
	if !ok {
		t.Fatalf("unknown bench %s", bench)
	}
	start, err := workload.MustBuild(workload.Scale(prof, scale)).Warm(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return start
}

// screeningConfigs resolves machines × every registered RENO configuration.
func screeningConfigs(t *testing.T, machines ...string) (cfgs []pipeline.Config, tags []string) {
	t.Helper()
	for _, m := range machines {
		for _, name := range machine.RenoNames() {
			rc, err := machine.RenoByName(name)
			if err != nil {
				t.Fatal(err)
			}
			cfg, err := machine.ParseMachine(m, rc)
			if err != nil {
				t.Fatal(err)
			}
			cfgs = append(cfgs, cfg)
			tags = append(tags, m+"/"+name)
		}
	}
	return cfgs, tags
}

// checkMembers runs cfgs as one group under ctx and compares every member
// with its one-by-one run: the error, every metric, the stop reason and
// both hashes.
func checkMembers(t *testing.T, ctx context.Context, req Request, cfgs []pipeline.Config, tags []string) {
	t.Helper()
	group, errs := RunGroup(ctx, req, cfgs)
	for i, cfg := range cfgs {
		req.Cfg = cfg
		want, wantErr := oneByOne(ctx, req)
		got, err := group[i], errs[i]
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Errorf("%s: group error %v, single run %v", tags[i], err, wantErr)
		}
		if (got == nil) != (want == nil) {
			t.Fatalf("%s: group result %v, single run %v", tags[i], got, want)
		}
		if got == nil {
			continue
		}
		if got.ArchHash != want.ArchHash || got.CommitHash != want.CommitHash || got.Pipe.StopReason != want.Pipe.StopReason {
			t.Errorf("%s: group arch %016x commit %016x stop %q, single run arch %016x commit %016x stop %q", tags[i],
				got.ArchHash, got.CommitHash, got.Pipe.StopReason, want.ArchHash, want.CommitHash, want.Pipe.StopReason)
		}
		if !got.Pipe.Metrics().Equal(want.Pipe.Metrics()) {
			t.Errorf("%s: group metrics differ from the single run's", tags[i])
		}
	}
}

// TestGroupMatchesSingleRuns: 4w and 6w under every RENO configuration, run
// as one group over one feed, give each member exactly its single run, for
// a budgeted run and for one to completion.
func TestGroupMatchesSingleRuns(t *testing.T) {
	cfgs, tags := screeningConfigs(t, "4w", "6w")
	for _, tc := range []struct {
		bench  string
		scale  float64
		budget uint64
	}{
		{"gzip", 0.3, 20_000},
		{"gsm.de", 0.1, 0},
	} {
		t.Run(tc.bench, func(t *testing.T) {
			checkMembers(t, context.Background(), Request{Start: warmStart(t, tc.bench, tc.scale), MaxInsts: tc.budget}, cfgs, tags)
		})
	}
}

// TestGroupFailsOnlyItsOwnMember: an invalid configuration fails its own
// member with the single run's error and leaves its neighbours' results
// untouched.
func TestGroupFailsOnlyItsOwnMember(t *testing.T) {
	cfgs, tags := screeningConfigs(t, "4w")
	bad := cfgs[len(cfgs)-1]
	bad.IQSize = bad.ROBSize + 1
	cfgs = append([]pipeline.Config{bad}, cfgs...)
	tags = append([]string{"iq_size > rob_size"}, tags...)
	checkMembers(t, context.Background(), Request{Start: warmStart(t, "gzip", 0.2), MaxInsts: 10_000}, cfgs, tags)

	if _, errs := RunGroup(context.Background(), Request{Start: warmStart(t, "gzip", 0.2)}, cfgs[:1]); errs[0] == nil {
		t.Error("a group of one invalid configuration ran")
	}
}

// TestEngineErrorFailsOnlyItsMember: a record without predecoded facts
// makes every engine that decides it fail with the error a lone engine
// gives on the same records; a member without an engine, or one that had
// already failed, is not touched.
func TestEngineErrorFailsOnlyItsMember(t *testing.T) {
	prof, _ := workload.ByName("gzip")
	recs, err := emu.CollectTrace(workload.MustBuild(workload.Scale(prof, 0.1)).Code, 600)
	if err != nil {
		t.Fatal(err)
	}
	recs[500].Facts = isa.Facts{}
	cfgs, _ := screeningConfigs(t, "4w")
	cfg := cfgs[len(cfgs)-1]
	if !cfg.Reno.AnyEnabled() {
		t.Fatalf("%+v enables no mechanism", cfg.Reno)
	}
	newEngine := func() *elim.Engine { return elim.New(cfg.Reno, cfg.ROBSize, cfg.RenameWidth) }

	lone := newEngine()
	var wantErr error
	for k := range recs {
		if _, _, wantErr = lone.Next(&recs[k]); wantErr != nil {
			break
		}
	}
	if wantErr == nil {
		t.Fatal("the unpredecoded record decided without error")
	}

	earlier := errors.New("failed earlier")
	parked := newEngine()
	engines := []*elim.Engine{newEngine(), nil, parked}
	errs := []error{nil, nil, earlier}
	decide(engines, errs, recs[:256])
	decide(engines, errs, recs[256:])
	if fmt.Sprint(errs[0]) != fmt.Sprint(wantErr) {
		t.Errorf("engine error %v, lone engine %v", errs[0], wantErr)
	}
	if errs[1] != nil {
		t.Errorf("member without an engine failed: %v", errs[1])
	}
	if errs[2] != earlier {
		t.Errorf("a failed member's error became %v", errs[2])
	}
	if st := parked.Stats(); st != newEngine().Stats() {
		t.Errorf("a failed member's engine kept deciding: %+v", st)
	}
}

// TestGroupCancellation: under a context that is already done, the feed
// stops at its first poll inside the timed region, and every member gets
// the partial result and error its single run gets there.
func TestGroupCancellation(t *testing.T) {
	cfgs, tags := screeningConfigs(t, "4w")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	req := Request{Start: warmStart(t, "gzip", 0.3)}
	checkMembers(t, ctx, req, cfgs, tags)
	res, errs := RunGroup(ctx, req, cfgs)
	for i := range cfgs {
		if !errors.Is(errs[i], context.Canceled) || res[i] == nil || res[i].Pipe.StopReason != "canceled" {
			t.Errorf("%s: canceled group member gave (%v, %v)", tags[i], res[i], errs[i])
		}
	}
}
