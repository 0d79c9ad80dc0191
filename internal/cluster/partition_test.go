package cluster

import (
	"reflect"
	"sync"
	"testing"
	"time"
)

func TestNextBatch(t *testing.T) {
	cases := []struct {
		pending, active, capacity, want int
	}{
		{0, 0, 4, 0},   // nothing pending
		{-3, 0, 4, 0},  // defensive
		{16, 0, 0, 8},  // first grant: half, leaving room for joiners
		{16, 1, 0, 6},  // ceil(16/3)
		{100, 0, 4, 8}, // capacity cap: 2× pool width
		{1, 10, 4, 1},  // tail of the sweep: single cells
		{3, 100, 4, 1}, // never zero while cells pend
	}
	for _, c := range cases {
		if got := NextBatch(c.pending, c.active, c.capacity); got != c.want {
			t.Errorf("NextBatch(%d, %d, %d) = %d, want %d", c.pending, c.active, c.capacity, got, c.want)
		}
	}
}

// fakeClock is a manually advanced time source for lease-expiry tests.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

func newFakeClock() *fakeClock {
	return &fakeClock{now: time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)}
}

func TestLeaseTableExpiryAndRenewal(t *testing.T) {
	clk := newFakeClock()
	tab := newLeaseTable(10*time.Second, clk.Now)

	a := tab.Grant("w1", "sw-1", []int{0, 1, 2})
	b := tab.Grant("w2", "sw-1", []int{3, 4})

	// Renewal pushes the deadline; the renewed lease survives a window
	// that kills the unrenewed one.
	clk.Advance(8 * time.Second)
	if !tab.Renew(b) {
		t.Fatal("live lease not renewed")
	}
	clk.Advance(7 * time.Second) // a is 15s old, b renewed 7s ago
	ex := tab.Expire()
	if len(ex) != 1 || ex[0].id != a || ex[0].worker != "w1" {
		t.Fatalf("expired %+v, want exactly lease %s", ex, a)
	}
	if !reflect.DeepEqual(ex[0].cells, []int{0, 1, 2}) {
		t.Errorf("expired cells %v, want sorted [0 1 2]", ex[0].cells)
	}
	if tab.Renew(a) {
		t.Error("expired lease renewed")
	}

	// Completing every cell retires the lease.
	tab.CompleteCell("sw-1", 3)
	tab.CompleteCell("sw-1", 4)
	if tab.Renew(b) {
		t.Error("fully completed lease still renewable")
	}
	if leases, cells := tab.Counts(); leases != 0 || cells != 0 {
		t.Errorf("table not empty: %d leases over %d cells", leases, cells)
	}
}
