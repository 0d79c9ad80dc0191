package pipeline

import (
	"context"
	"fmt"
	"testing"

	"reno/internal/reno"
	"reno/internal/workload"
)

// conservation is a per-cycle audit (Sim.audit) of the pipeline's
// bookkeeping: after every cycle it walks the ring and checks the
// occupancy counters, the store ring, the ring's capacity and the
// engine's undecided work against what the slots hold.
type conservation struct {
	err error

	// held is the program position (committed + ROB offset) of each store
	// in the ROB whose issue squashed, as of the last cycle; leaked counts
	// those that have committed since. Such a store never releases its
	// issue-queue slot, so iqUsed exceeds the recount by exactly leaked.
	held   []uint64
	leaked int

	refetches int // the most slots waiting for a refetch at once
}

func (c *conservation) check(s *Sim) {
	if c.err != nil {
		return
	}
	n := s.robCount + s.fqLen + s.refetch
	if n > len(s.rob) {
		c.err = fmt.Errorf("cycle %d: %d ROB + %d fetch-queue + %d refetch entries overflow the %d-slot ring",
			s.cycle, s.robCount, s.fqLen, s.refetch, len(s.rob))
		return
	}
	// A squashed store is refetched at the earliest a redirect penalty
	// later, so a position held last cycle and committed now committed
	// while held.
	for _, pos := range c.held {
		if pos < s.committed {
			c.leaked++
		}
	}
	c.held = c.held[:0]
	iq, lq, sq, decisions := 0, 0, 0, 0
	mask := len(s.stq) - 1
	for off := 0; off < n; off++ {
		e := s.robPos(off)
		// The ROB, the fetch queue and the slots waiting for a refetch
		// hold one stretch of the committed path.
		if off > 0 && s.robPos(off-1).dyn.NextPC != e.dyn.PC {
			c.err = fmt.Errorf("cycle %d: the instruction at ring offset %d does not follow the one before it", s.cycle, off)
			return
		}
		if e.ren != nil {
			decisions++
		}
		if off >= s.robCount {
			continue
		}
		if e.state == stWaiting || e.iqHeld {
			iq++
		}
		if e.iqHeld {
			c.held = append(c.held, s.committed+uint64(off))
		}
		if e.isLoad {
			lq++
		}
		if e.isStore {
			if sq >= s.sqUsed || int(s.stq[(s.stqHead+sq)&mask]) != s.ringIdx(off) {
				c.err = fmt.Errorf("cycle %d: the store at ROB offset %d is not store-queue entry %d of %d",
					s.cycle, off, sq, s.sqUsed)
				return
			}
			sq++
		}
	}
	// Each decision the engine made and the core has not committed is held
	// by exactly one of those slots.
	decided := s.eng.Stats().Renamed - s.committed
	switch {
	case lq != s.lqUsed || sq != s.sqUsed:
		c.err = fmt.Errorf("cycle %d: %d loads and %d stores in the ROB, lqUsed %d, sqUsed %d",
			s.cycle, lq, sq, s.lqUsed, s.sqUsed)
	case iq+c.leaked != s.iqUsed:
		c.err = fmt.Errorf("cycle %d: iqUsed %d, but %d entries wait or hold a slot and %d committed stores leaked one",
			s.cycle, s.iqUsed, iq, c.leaked)
	case decided > uint64(s.cfg.ROBSize):
		c.err = fmt.Errorf("cycle %d: %d decided instructions are not committed, more than the %d-entry ROB",
			s.cycle, decided, s.cfg.ROBSize)
	case decided != uint64(decisions):
		c.err = fmt.Errorf("cycle %d: %d decided instructions are not committed, but %d in-flight entries hold a decision",
			s.cycle, decided, decisions)
	}
	c.refetches = max(c.refetches, s.refetch)
}

// auditBudget keeps the 68 audited runs inside the tier-1 budget: each
// times this many instructions from its program's post-warmup state.
const auditBudget = 40_000

// TestConservationAudit runs every benchmark on the 4-wide machine with
// BASE and with RENO under the conservation audit. The issue-queue
// occupancy is pinned to today's known leak: it exceeds the recount by
// exactly the stores that committed after an order-violation squash at
// their issue. The sums over all runs show that squashes, refetches and
// the leak were exercised.
func TestConservationAudit(t *testing.T) {
	var replays, refetches, leaked int
	for _, prof := range workload.AllProfiles() {
		start, err := workload.MustBuild(prof).Warm(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []struct {
			name string
			cfg  Config
		}{{"BASE", FourWide(reno.Baseline(0))}, {"RENO", FourWide(reno.Default(0))}} {
			f := NewFeed(context.Background(), start.Machine(), auditBudget)
			s := New(r.cfg, f.Next)
			s.budget = f.budget
			c := &conservation{}
			s.audit = c.check
			res, err := s.RunContext(context.Background(), RunOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if c.err != nil {
				t.Errorf("%s on 4w %s: %v", prof.Name, r.name, c.err)
			}
			replays += int(res.Replays)
			refetches = max(refetches, c.refetches)
			leaked += c.leaked
		}
	}
	if replays == 0 || refetches == 0 || leaked == 0 {
		t.Errorf("%d squashes, at most %d slots waiting for a refetch, %d leaked issue-queue slots: want all above zero",
			replays, refetches, leaked)
	}
}
