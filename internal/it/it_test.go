package it

import (
	"math/rand"
	"testing"
	"unsafe"

	"reno/internal/isa"
	"reno/internal/renamer"
)

func m(p int, d int32) renamer.Mapping { return renamer.Mapping{P: p, D: d} }

// testRegs sizes the register file of the hand-written tests' tables.
const testRegs = 128

func TestInsertLookupHit(t *testing.T) {
	tb := New(512, 2, testRegs, PolicyLoadsOnly)
	tb.Insert(Entry{
		Op: isa.OpLd, Imm: 8, In1: m(1, 0), In2: m(0, 0),
		Out: m(3, 0), Value: 77,
	})
	out, val, _, hit := tb.Lookup(isa.OpLd, 8, m(1, 0), m(0, 0))
	if !hit || out != m(3, 0) || val != 77 {
		t.Errorf("lookup = %v,%d,%v", out, val, hit)
	}
}

func TestLookupMissOnDifferentSignature(t *testing.T) {
	tb := New(512, 2, testRegs, PolicyLoadsOnly)
	tb.Insert(Entry{Op: isa.OpLd, Imm: 8, In1: m(1, 0), Out: m(3, 0)})
	cases := []struct {
		op   isa.Op
		imm  int32
		in1  renamer.Mapping
		desc string
	}{
		{isa.OpLd, 16, m(1, 0), "different immediate"},
		{isa.OpLd, 8, m(2, 0), "different input register"},
		{isa.OpLd, 8, m(1, 4), "different input displacement"},
	}
	for _, c := range cases {
		if _, _, _, hit := tb.Lookup(c.op, c.imm, c.in1, m(0, 0)); hit {
			t.Errorf("%s: unexpected hit", c.desc)
		}
	}
}

// TestFigure3CSE reproduces the paper's Figure 3 (top): the second load
// integrates against the first; after r1 is overwritten the third load's
// signature no longer matches.
func TestFigure3CSE(t *testing.T) {
	tb := New(512, 2, testRegs, PolicyLoadsOnly)
	p1, p3, p6 := 1, 3, 6

	// load r3, 8(r1) with r1->[p1]: non-redundant, creates <load/8, p1 -> p3>.
	if _, _, _, hit := tb.Lookup(isa.OpLd, 8, m(p1, 0), m(0, 0)); hit {
		t.Fatal("cold lookup hit")
	}
	tb.Insert(Entry{Op: isa.OpLd, Imm: 8, In1: m(p1, 0), In2: m(0, 0), Out: m(p3, 0)})

	// load r4, 8(r1): redundant -> r4 shares p3.
	out, _, _, hit := tb.Lookup(isa.OpLd, 8, m(p1, 0), m(0, 0))
	if !hit || out.P != p3 {
		t.Fatalf("second load should integrate to p3, got %v/%v", out, hit)
	}

	// add overwrites r1 -> p6; the third load reads [p6] and must miss.
	if _, _, _, hit := tb.Lookup(isa.OpLd, 8, m(p6, 0), m(0, 0)); hit {
		t.Error("third load integrated despite overwritten input register")
	}
}

// TestFigure3RA reproduces Figure 3 (bottom): a stack store creates the
// reverse entry its matching load integrates against.
func TestFigure3RA(t *testing.T) {
	tb := New(512, 2, testRegs, PolicyFull)
	p2, p8 := 2, 8

	// store r2, 8(sp) with sp->[p8], r2->[p2]: reverse entry
	// <load/8, p8 -> p2>.
	tb.Insert(Entry{
		Op: isa.OpLd, Imm: 8, In1: m(p8, 0), In2: m(0, 0),
		Out: m(p2, 0), Reverse: true, Value: 42,
	})

	// load r2, 8(sp) with sp back to [p8]: integrates to p2.
	out, val, rev, hit := tb.Lookup(isa.OpLd, 8, m(p8, 0), m(0, 0))
	if !hit || out.P != p2 || !rev || val != 42 {
		t.Errorf("bypass lookup = %v,%d,rev=%v,hit=%v", out, val, rev, hit)
	}
}

// TestFigure5CFInteraction reproduces Figure 5: with CF displacements in
// the signature, two loads reading [p1:4] match even though the addi that
// created the displacement was itself eliminated.
func TestFigure5CFInteraction(t *testing.T) {
	tb := New(512, 2, testRegs, PolicyLoadsOnly)
	p1, p2 := 1, 2
	tb.Insert(Entry{Op: isa.OpLd, Imm: 8, In1: m(p1, 4), In2: m(0, 0), Out: m(p2, 0)})
	out, _, _, hit := tb.Lookup(isa.OpLd, 8, m(p1, 4), m(0, 0))
	if !hit || out.P != p2 {
		t.Errorf("displaced-signature integration failed: %v/%v", out, hit)
	}
	// A different displacement on the same register must miss.
	if _, _, _, hit := tb.Lookup(isa.OpLd, 8, m(p1, 8), m(0, 0)); hit {
		t.Error("mismatched displacement integrated")
	}
}

func TestInvalidatePhys(t *testing.T) {
	tb := New(512, 2, testRegs, PolicyFull)
	tb.Insert(Entry{Op: isa.OpLd, Imm: 0, In1: m(1, 0), Out: m(3, 0)})
	tb.Insert(Entry{Op: isa.OpAdd, In1: m(3, 0), In2: m(2, 0), Out: m(4, 0)})
	tb.Insert(Entry{Op: isa.OpLd, Imm: 8, In1: m(5, 0), Out: m(6, 0)})

	tb.InvalidatePhys(3) // frees p3: kills both entries touching it
	if _, _, _, hit := tb.Lookup(isa.OpLd, 0, m(1, 0), m(0, 0)); hit {
		t.Error("entry with freed output register survived")
	}
	if _, _, _, hit := tb.Lookup(isa.OpAdd, 0, m(3, 0), m(2, 0)); hit {
		t.Error("entry with freed input register survived")
	}
	if _, _, _, hit := tb.Lookup(isa.OpLd, 8, m(5, 0), m(0, 0)); !hit {
		t.Error("unrelated entry invalidated")
	}
}

func TestInvalidateSignature(t *testing.T) {
	tb := New(512, 2, testRegs, PolicyLoadsOnly)
	tb.Insert(Entry{Op: isa.OpLd, Imm: 8, In1: m(1, 0), In2: m(0, 0), Out: m(3, 0)})
	tb.InvalidateSignature(isa.OpLd, 8, m(1, 0), m(0, 0))
	if _, _, _, hit := tb.Lookup(isa.OpLd, 8, m(1, 0), m(0, 0)); hit {
		t.Error("invalidated signature still hits")
	}
}

func TestSetConflictEviction(t *testing.T) {
	tb := New(4, 2, testRegs, PolicyLoadsOnly) // 2 sets x 2 ways: tiny on purpose
	inserted := 0
	for p := 1; p <= 16; p++ {
		tb.Insert(Entry{Op: isa.OpLd, Imm: 0, In1: m(p, 0), Out: m(p+100, 0)})
		inserted++
	}
	if occ := tb.Occupancy(); occ > 4 {
		t.Errorf("occupancy %d exceeds capacity 4", occ)
	}
}

func TestDuplicateSignatureRefreshes(t *testing.T) {
	tb := New(512, 2, testRegs, PolicyLoadsOnly)
	tb.Insert(Entry{Op: isa.OpLd, Imm: 8, In1: m(1, 0), Out: m(3, 0), Value: 1})
	tb.Insert(Entry{Op: isa.OpLd, Imm: 8, In1: m(1, 0), Out: m(9, 0), Value: 2})
	out, val, _, hit := tb.Lookup(isa.OpLd, 8, m(1, 0), m(0, 0))
	if !hit || out.P != 9 || val != 2 {
		t.Errorf("refresh lookup = %v,%d,%v", out, val, hit)
	}
	if tb.Occupancy() != 1 {
		t.Errorf("duplicate signature occupies %d entries", tb.Occupancy())
	}
}

// TestEntrySize keeps the tuple, most of what an engine allocates, at 96
// bytes: the two flags share the opcode's word, so no field pads.
func TestEntrySize(t *testing.T) {
	if n := unsafe.Sizeof(Entry{}); n != 96 {
		t.Errorf("Entry is %d bytes, want 96", n)
	}
}

func TestPolicyCovers(t *testing.T) {
	loads := New(512, 2, testRegs, PolicyLoadsOnly)
	full := New(512, 2, testRegs, PolicyFull)
	ld := isa.Predecode(isa.Ld(1, 2, 8)).Class()
	add := isa.Predecode(isa.R(isa.OpAdd, 1, 2, 3)).Class()
	st := isa.Predecode(isa.St(1, 2, 8)).Class()
	br := isa.Predecode(isa.Branch(isa.OpBeq, 1, 2, 0)).Class()
	if !loads.Covers(ld) || !loads.Covers(st) {
		t.Error("loads-only policy must cover loads and stores")
	}
	if loads.Covers(add) {
		t.Error("loads-only policy must not cover ALU ops")
	}
	if !full.Covers(add) {
		t.Error("full policy must cover ALU ops")
	}
	if loads.Covers(br) || full.Covers(br) {
		t.Error("branches are never IT candidates")
	}
}

func TestStatsCounting(t *testing.T) {
	tb := New(512, 2, testRegs, PolicyLoadsOnly)
	tb.Insert(Entry{Op: isa.OpLd, Imm: 8, In1: m(1, 0), Out: m(3, 0)})
	tb.Lookup(isa.OpLd, 8, m(1, 0), m(0, 0))
	tb.Lookup(isa.OpLd, 9, m(1, 0), m(0, 0))
	if tb.Inserts != 1 || tb.Lookups != 2 || tb.Hits != 1 {
		t.Errorf("stats = ins%d look%d hit%d", tb.Inserts, tb.Lookups, tb.Hits)
	}
}

// TestSetOfMatchesModulo is the set index's oracle: whether setOf masks
// (a power-of-two set count) or divides, the chosen set is h % sets.
func TestSetOfMatchesModulo(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, sets := range []int{1, 2, 3, 50, 256, 512} {
		tb := New(sets*2, 2, testRegs, PolicyLoadsOnly)
		hs := []uint64{0, 1, ^uint64(0), 1 << 63}
		for k := 0; k < 10000; k++ {
			hs = append(hs, rng.Uint64())
		}
		for _, h := range hs {
			if got, want := tb.setOf(h), int(h%uint64(sets)); got != want {
				t.Fatalf("%d sets: setOf(%#x) = %d, want %d", sets, h, got, want)
			}
		}
	}
}

// refTable is the integration table's reference model: the same sets, set
// index, refresh-in-place and LRU victim choice, with a reclaim clearing
// every tuple that names the register by a whole-table scan (the eager
// semantics a lazy hardware integration test must reproduce).
type refTable struct {
	index   *Table // supplies set bounds and the hash only
	entries []Entry
	tick    uint64
}

func newRefTable(index *Table) *refTable {
	return &refTable{index: index, entries: make([]Entry, index.Size())}
}

func (r *refTable) find(op isa.Op, imm int32, in1, in2 renamer.Mapping) *Entry {
	lo, hi := r.index.setBounds(r.index.hash(op, imm, in1))
	for i := lo; i < hi; i++ {
		e := &r.entries[i]
		if e.Valid && e.Op == op && e.Imm == imm && e.In1 == in1 && e.In2 == in2 {
			return e
		}
	}
	return nil
}

func (r *refTable) lookup(op isa.Op, imm int32, in1, in2 renamer.Mapping) (renamer.Mapping, uint64, bool, bool) {
	e := r.find(op, imm, in1, in2)
	if e == nil {
		return renamer.Mapping{}, 0, false, false
	}
	r.tick++
	e.age = r.tick
	return e.Out, e.Value, e.Reverse, true
}

func (r *refTable) peek(op isa.Op, imm int32, in1, in2 renamer.Mapping) (renamer.Mapping, uint64, bool, bool) {
	if e := r.find(op, imm, in1, in2); e != nil {
		return e.Out, e.Value, e.Reverse, true
	}
	return renamer.Mapping{}, 0, false, false
}

func (r *refTable) insert(e Entry) {
	r.tick++
	e.Valid, e.age = true, r.tick
	if old := r.find(e.Op, e.Imm, e.In1, e.In2); old != nil {
		*old = e
		return
	}
	lo, hi := r.index.setBounds(r.index.hash(e.Op, e.Imm, e.In1))
	victim := lo
	for i := lo; i < hi; i++ {
		if !r.entries[i].Valid {
			victim = i
			break
		}
		if r.entries[i].age < r.entries[victim].age {
			victim = i
		}
	}
	r.entries[victim] = e
}

func (r *refTable) reclaim(p int) {
	for i := range r.entries {
		e := &r.entries[i]
		if e.In1.P == p || e.In2.P == p || e.Out.P == p {
			e.Valid = false
		}
	}
}

func (r *refTable) invalidateSignature(op isa.Op, imm int32, in1, in2 renamer.Mapping) {
	if e := r.find(op, imm, in1, in2); e != nil {
		e.Valid = false
	}
}

func (r *refTable) occupancy() int {
	n := 0
	for i := range r.entries {
		if r.entries[i].Valid {
			n++
		}
	}
	return n
}

// Fuzz-step encoding: one step is four bytes, kind then a, b, c. The
// signature space is small on purpose (8 physical registers, 8 immediates,
// two displacements, two opcodes) so refreshes, conflicts and reclaims of
// a live register are common.
const (
	stepInsert = iota
	stepLookup
	stepPeek
	stepReclaim
	stepInvalidateSignature
	stepKinds

	fuzzRegs = 8
)

// fuzzGeometries are the table shapes a fuzz input's first byte selects:
// 1, 2, 3 and 256 sets.
var fuzzGeometries = [][2]int{{4, 4}, {4, 2}, {6, 2}, {512, 2}}

// stepSignature decodes a: bit 0 the opcode, bits 1-3 the immediate, bit
// 4 the first input's displacement, bits 5-7 the second input's register
// (0 is the zero register); and b's low three bits: the first input's
// register.
func stepSignature(a, b byte) (isa.Op, int32, renamer.Mapping, renamer.Mapping) {
	op := isa.OpLd
	if a&1 != 0 {
		op = isa.OpAdd
	}
	return op, int32(a>>1&7) * 8, m(int(b&7), int32(a>>4&1)*4), m(int(a>>5), 0)
}

// FuzzTableMatchesReference drives the table and the eager reference
// through the same inserts, lookups, peeks, signature invalidations and
// register reclaims, and requires them to agree on every probe result
// and, after every step, on occupancy and the access counters.
func FuzzTableMatchesReference(f *testing.F) {
	step := func(kind int, a, b, c byte) []byte { return []byte{byte(kind), a, b, c} }
	rng := rand.New(rand.NewSource(7))
	for g := range fuzzGeometries {
		seed := []byte{byte(g)}
		for k := 0; k < 300; k++ {
			kind := rng.Intn(10)
			if kind >= stepKinds {
				kind = stepInsert // inserts dominate, so the table fills
			}
			seed = append(seed, step(kind, byte(rng.Intn(256)), byte(rng.Intn(256)), byte(rng.Intn(256)))...)
		}
		f.Add(seed)
	}
	// Refreshing a duplicate signature: the new output replaces the old,
	// so reclaiming the old output register leaves the tuple alive and
	// reclaiming the new one kills it.
	for g := range fuzzGeometries {
		f.Add(append([]byte{byte(g)},
			append(step(stepInsert, 0x02, 0x11, 1),
				append(step(stepInsert, 0x02, 0x21, 2),
					append(step(stepLookup, 0x02, 0x01, 0),
						append(step(stepReclaim, 0, 2, 0),
							append(step(stepLookup, 0x02, 0x01, 0),
								append(step(stepReclaim, 0, 4, 0),
									step(stepLookup, 0x02, 0x01, 0)...)...)...)...)...)...)...))
	}
	// More than 64 live tuples naming register 5 between two reclaims of
	// it (every output is p5), on the 256-set table; then probes of each.
	many := []byte{3}
	manySig := func(k int) (a, b byte) { return byte(k), byte(k*3&7 | 5<<3) }
	for k := 0; k < 128; k++ {
		a, b := manySig(k)
		many = append(many, step(stepInsert, a, b, byte(k))...)
	}
	for round := 0; round < 2; round++ {
		for k := 0; k < 128; k += 3 {
			a, b := manySig(k)
			many = append(many, step(stepLookup, a, b, 0)...)
		}
		many = append(many, step(stepReclaim, 0, 5, 0)...)
	}
	f.Add(many)

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		geo := fuzzGeometries[int(data[0])%len(fuzzGeometries)]
		tb := New(geo[0], geo[1], fuzzRegs, PolicyFull)
		ref := newRefTable(tb)
		var lookups, hits, inserts uint64
		for k, s := 1, 0; k+4 <= len(data); k, s = k+4, s+1 {
			kind, a, b, c := int(data[k])%stepKinds, data[k+1], data[k+2], data[k+3]
			op, imm, in1, in2 := stepSignature(a, b)
			switch kind {
			case stepInsert:
				e := Entry{Op: op, Imm: imm, In1: in1, In2: in2, Out: m(int(b>>3&7), int32(c&1)*4),
					Reverse: b&0x40 != 0, Value: uint64(c)}
				tb.Insert(e)
				ref.insert(e)
				inserts++
			case stepLookup:
				out, val, rev, hit := tb.Lookup(op, imm, in1, in2)
				wout, wval, wrev, whit := ref.lookup(op, imm, in1, in2)
				if out != wout || val != wval || rev != wrev || hit != whit {
					t.Fatalf("step %d: lookup = %v,%d,%v,%v; reference %v,%d,%v,%v", s, out, val, rev, hit, wout, wval, wrev, whit)
				}
				lookups++
				if hit {
					hits++
				}
			case stepPeek:
				out, val, rev, hit := tb.Peek(op, imm, in1, in2)
				wout, wval, wrev, whit := ref.peek(op, imm, in1, in2)
				if out != wout || val != wval || rev != wrev || hit != whit {
					t.Fatalf("step %d: peek = %v,%d,%v,%v; reference %v,%d,%v,%v", s, out, val, rev, hit, wout, wval, wrev, whit)
				}
			case stepReclaim:
				tb.InvalidatePhys(int(b & 7))
				ref.reclaim(int(b & 7))
			case stepInvalidateSignature:
				tb.InvalidateSignature(op, imm, in1, in2)
				ref.invalidateSignature(op, imm, in1, in2)
			}
			if got, want := tb.Occupancy(), ref.occupancy(); got != want {
				t.Fatalf("step %d (kind %d): occupancy %d, reference %d", s, kind, got, want)
			}
			if tb.Lookups != lookups || tb.Hits != hits || tb.Inserts != inserts {
				t.Fatalf("step %d: counters look%d hit%d ins%d, want %d %d %d", s, tb.Lookups, tb.Hits, tb.Inserts, lookups, hits, inserts)
			}
		}
	})
}
