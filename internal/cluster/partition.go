package cluster

// Batch sizing is a pure function so the policy is testable without a
// coordinator, and so grant contents are a deterministic function of queue
// state.

// NextBatch sizes a lease grant: an even share of the pending cells over
// the active leases plus headroom for two more workers, so early grants
// don't starve late joiners, and late in the sweep grants shrink toward
// single cells — a dead worker's lease strands few cells until it expires.
// capacity is the worker's pool width; a grant is capped at twice it so a
// narrow worker can't hoard a wide sweep. Returns 0 only when nothing is
// pending.
func NextBatch(pending, activeLeases, capacity int) int {
	if pending <= 0 {
		return 0
	}
	share := activeLeases + 2
	n := (pending + share - 1) / share
	if capacity > 0 && n > 2*capacity {
		n = 2 * capacity
	}
	if n < 1 {
		n = 1
	}
	return n
}
