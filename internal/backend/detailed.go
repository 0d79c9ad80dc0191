package backend

import (
	"context"

	"reno/internal/pipeline"
)

// detailedBackend wraps the cycle-level pipeline model. It is the fidelity
// reference: every field of Result.Pipe is meaningful.
type detailedBackend struct{}

func (detailedBackend) Kind() Kind { return Detailed }

func (detailedBackend) Run(ctx context.Context, req Request) (*Result, error) {
	if err := validate(req.Cfg); err != nil {
		return nil, err
	}
	f, err := feed(ctx, req)
	if err != nil {
		return nil, err
	}
	res, err := pipeline.Run(ctx, req.Cfg, f, req.Opts)
	return &Result{Pipe: res, ArchHash: f.ArchHash(), CommitHash: f.CommitHash()}, err
}
