package pipeline

// issueQueue tracks the ROB's waiting (stWaiting) entries by ring index so
// that issue visits only entries that can issue. A waiting entry is in one
// of three places, by what it last failed to issue on:
//
//   - cand, a bitset: entries issueStage checks every cycle. These are
//     entries held back only by an issue port or the issue width, and loads
//     blocked by a store-set constraint or a forwarding store.
//   - sleep, one bitset per physical register: entries waiting on an
//     operand whose producer has not issued (wakeAt is never).
//   - wheel, a timing wheel of bitsets: entries waiting on an operand that
//     wakes at a known cycle.
//
// A producer's issue moves its register's sleepers onto the wheel, and each
// cycle moves the wheel's due entries back to cand. An entry outside cand
// would fail ready on the same operand, so skipping it changes nothing
// (see enqueue for the critical-path bound). An entry may also be checked
// early, which repeats the verdict its cycle reaches anyway: the wheel
// looks only wheelSize cycles ahead and wakes later timers early, and a
// squash leaves stale bits behind for whatever entry reuses the ring slot.
type issueQueue struct {
	words int      // bitset words per set
	cand  []uint64 // ring index bitset
	sleep []uint64 // words per physical register
	wheel []uint64 // words per bucket; bucket c&(wheelSize-1) is due at cycle c
	now   uint64   // the last cycle due has run for

	// sleepy and busy flag the physical registers with a sleeper and the
	// non-empty wheel buckets, so that the common empty case costs one
	// bit test.
	sleepy []uint64
	busy   [wheelSize / 64]uint64

	// blockP is, for a candidate load held by a forwarding store, that
	// store's data register (-1 for a store-set block): the wake-up that
	// can release it, which idle-cycle skipping must not jump past.
	blockP []int32
}

// wheelSize is how many cycles ahead the timing wheel resolves; a power of
// two above most operand latencies, memory misses included.
const wheelSize = 256

// reset empties q and sizes it for a ring of ring entries and pregs
// physical registers, keeping each array's memory when it is large
// enough.
func (q *issueQueue) reset(ring, pregs int) {
	w := (ring + 63) / 64
	*q = issueQueue{
		words:  w,
		cand:   zeroed(q.cand, w),
		sleep:  zeroed(q.sleep, w*pregs),
		wheel:  zeroed(q.wheel, w*wheelSize),
		sleepy: zeroed(q.sleepy, (pregs+63)/64),
		blockP: zeroed(q.blockP, ring),
	}
}

//reno:hotpath
func (q *issueQueue) add(idx int) { q.cand[idx>>6] |= 1 << uint(idx&63) }

//reno:hotpath
func (q *issueQueue) drop(idx int) { q.cand[idx>>6] &^= 1 << uint(idx&63) }

// bucket returns the wheel bucket due at cycle at, or at the wheel's
// horizon if at lies beyond it.
//
//reno:hotpath
func (q *issueQueue) bucket(at uint64) []uint64 {
	if at >= q.now+wheelSize {
		at = q.now + wheelSize - 1
	}
	c := int(at & (wheelSize - 1))
	q.busy[c>>6] |= 1 << uint(c&63)
	return q.wheel[c*q.words : (c+1)*q.words]
}

// sleepOn parks idx until operand p wakes; at is wakeAt[p].
//
//reno:hotpath
func (q *issueQueue) sleepOn(idx int, p int32, at uint64) {
	q.drop(idx)
	if at == never {
		q.sleep[int(p)*q.words+idx>>6] |= 1 << uint(idx&63)
		q.sleepy[p>>6] |= 1 << uint(p&63)
		return
	}
	q.bucket(at)[idx>>6] |= 1 << uint(idx&63)
}

// wake schedules every sleeper on p for cycle at, p's new wakeAt.
//
//reno:hotpath
func (q *issueQueue) wake(p int, at uint64) {
	if q.sleepy[p>>6]&(1<<uint(p&63)) != 0 {
		q.wakeSleepers(p, at)
	}
}

//reno:hotpath
func (q *issueQueue) wakeSleepers(p int, at uint64) {
	q.sleepy[p>>6] &^= 1 << uint(p&63)
	row := q.sleep[p*q.words : (p+1)*q.words]
	b := q.bucket(at)
	for k, w := range row {
		b[k] |= w
		row[k] = 0
	}
}

// due returns to cand every entry whose timer has come by cycle now. A
// jump over idle cycles crosses only empty buckets (nextEvent stops it at
// the first busy one), so stepping q.now through them costs a bit test
// each.
//
//reno:hotpath
func (q *issueQueue) due(now uint64) {
	for q.now < now {
		q.now++
		if c := int(q.now & (wheelSize - 1)); q.busy[c>>6]&(1<<uint(c&63)) != 0 {
			q.fire(c)
		}
	}
}

// fire moves wheel bucket c into cand.
//
//reno:hotpath
func (q *issueQueue) fire(c int) {
	q.busy[c>>6] &^= 1 << uint(c&63)
	b := q.wheel[c*q.words : (c+1)*q.words]
	for k, w := range b {
		q.cand[k] |= w
		b[k] = 0
	}
}

// earliest returns the first cycle after now with an entry due (never if
// none).
//
//reno:hotpath
func (q *issueQueue) earliest() uint64 {
	for c := q.now + 1; c < q.now+wheelSize; c++ {
		if i := int(c & (wheelSize - 1)); q.busy[i>>6]&(1<<uint(i&63)) != 0 {
			return c
		}
	}
	return never
}
