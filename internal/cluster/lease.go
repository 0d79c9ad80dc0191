package cluster

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// lease is one worker's claim on a batch of cells. All fields after the
// identity trio are mutated only while the owning leaseTable's mutex is
// held.
type lease struct {
	id     string
	worker string
	sweep  string
	// cells holds the batch's incomplete cell indices; completed cells
	// are removed, and an emptied lease is retired.
	cells map[int]struct{}
	// deadline is the instant the lease expires unless renewed.
	deadline time.Time
}

// expiredLease reports one reaped lease to the coordinator, cells sorted.
type expiredLease struct {
	id     string
	worker string
	sweep  string
	cells  []int
}

// leaseTable owns every outstanding lease. It is self-locking: the
// coordinator calls it with its own mutex held, and the lock order is
// always Coordinator.mu → leaseTable.mu, never the reverse.
type leaseTable struct {
	ttl   time.Duration
	clock func() time.Time

	mu  sync.Mutex
	seq int               // guarded by mu
	m   map[string]*lease // guarded by mu

	granted uint64 // guarded by mu
	renewed uint64 // guarded by mu
	expired uint64 // guarded by mu
}

func newLeaseTable(ttl time.Duration, clock func() time.Time) *leaseTable {
	return &leaseTable{ttl: ttl, clock: clock, m: make(map[string]*lease)}
}

// Grant creates a lease over cells for worker and returns its id.
func (t *leaseTable) Grant(worker, sweep string, cells []int) string {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	l := &lease{
		id:       fmt.Sprintf("ls-%06d", t.seq),
		worker:   worker,
		sweep:    sweep,
		cells:    make(map[int]struct{}, len(cells)),
		deadline: t.clock().Add(t.ttl),
	}
	for _, c := range cells {
		l.cells[c] = struct{}{}
	}
	t.m[l.id] = l
	t.granted++
	return l.id
}

// Renew pushes the lease's deadline out by one TTL. It reports false when
// the lease is gone — expired, fully completed, or retired with its sweep.
func (t *leaseTable) Renew(id string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	l := t.m[id]
	if l == nil {
		return false
	}
	l.deadline = t.clock().Add(t.ttl)
	t.renewed++
	return true
}

// CompleteCell removes a settled cell from whichever of the sweep's leases
// holds it (at most one does) and retires the lease if it empties. The
// settling upload may come from a lease that no longer exists — an expired
// worker uploading after its lease was reaped — in which case there is
// nothing to remove.
func (t *leaseTable) CompleteCell(sweep string, cell int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, id := range t.idsLocked() {
		l := t.m[id]
		if l.sweep != sweep {
			continue
		}
		if _, held := l.cells[cell]; !held {
			continue
		}
		delete(l.cells, cell)
		if len(l.cells) == 0 {
			delete(t.m, id)
		}
		return
	}
}

// Expire reaps every lease past its deadline and reports their incomplete
// cells for requeueing, in grant order.
func (t *leaseTable) Expire() []expiredLease {
	t.mu.Lock()
	defer t.mu.Unlock()
	now := t.clock()
	var out []expiredLease
	for _, id := range t.idsLocked() {
		l := t.m[id]
		if !l.deadline.Before(now) {
			continue
		}
		delete(t.m, id)
		t.expired++
		out = append(out, expiredLease{id: id, worker: l.worker, sweep: l.sweep, cells: sortedCells(l.cells)})
	}
	return out
}

// DropSweep retires every lease belonging to a finished or cancelled sweep.
func (t *leaseTable) DropSweep(sweep string) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for id, l := range t.m {
		if l.sweep == sweep {
			delete(t.m, id)
		}
	}
}

// Counts reports the outstanding lease count and the cells they cover.
func (t *leaseTable) Counts() (leases, cells int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, id := range t.idsLocked() {
		cells += len(t.m[id].cells)
	}
	return len(t.m), cells
}

// Lifetime reports the lifetime lease-lifecycle counters.
func (t *leaseTable) Lifetime() (granted, renewed, expired uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.granted, t.renewed, t.expired
}

// idsLocked returns the live lease ids in grant order; callers hold t.mu.
func (t *leaseTable) idsLocked() []string {
	ids := make([]string, 0, len(t.m))
	for id := range t.m {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// sortedCells flattens a cell set into ascending order.
func sortedCells(set map[int]struct{}) []int {
	cells := make([]int, 0, len(set))
	for c := range set {
		cells = append(cells, c)
	}
	sort.Ints(cells)
	return cells
}
