package it

import (
	"math/rand"
	"testing"

	"reno/internal/isa"
	"reno/internal/renamer"
)

func m(p int, d int32) renamer.Mapping { return renamer.Mapping{P: p, D: d} }

func TestInsertLookupHit(t *testing.T) {
	tb := New(512, 2, PolicyLoadsOnly)
	tb.Insert(Entry{
		Op: isa.OpLd, Imm: 8, In1: m(1, 0), In2: m(0, 0),
		Out: m(3, 0), Value: 77, HasValue: true,
	})
	out, val, hit := tb.Lookup(isa.OpLd, 8, m(1, 0), m(0, 0))
	if !hit || out != m(3, 0) || val != 77 {
		t.Errorf("lookup = %v,%d,%v", out, val, hit)
	}
}

func TestLookupMissOnDifferentSignature(t *testing.T) {
	tb := New(512, 2, PolicyLoadsOnly)
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
		if _, _, hit := tb.Lookup(c.op, c.imm, c.in1, m(0, 0)); hit {
			t.Errorf("%s: unexpected hit", c.desc)
		}
	}
}

// TestFigure3CSE reproduces the paper's Figure 3 (top): the second load
// integrates against the first; after r1 is overwritten the third load's
// signature no longer matches.
func TestFigure3CSE(t *testing.T) {
	tb := New(512, 2, PolicyLoadsOnly)
	p1, p3, p6 := 1, 3, 6

	// load r3, 8(r1) with r1->[p1]: non-redundant, creates <load/8, p1 -> p3>.
	if _, _, hit := tb.Lookup(isa.OpLd, 8, m(p1, 0), m(0, 0)); hit {
		t.Fatal("cold lookup hit")
	}
	tb.Insert(Entry{Op: isa.OpLd, Imm: 8, In1: m(p1, 0), In2: m(0, 0), Out: m(p3, 0)})

	// load r4, 8(r1): redundant -> r4 shares p3.
	out, _, hit := tb.Lookup(isa.OpLd, 8, m(p1, 0), m(0, 0))
	if !hit || out.P != p3 {
		t.Fatalf("second load should integrate to p3, got %v/%v", out, hit)
	}

	// add overwrites r1 -> p6; the third load reads [p6] and must miss.
	if _, _, hit := tb.Lookup(isa.OpLd, 8, m(p6, 0), m(0, 0)); hit {
		t.Error("third load integrated despite overwritten input register")
	}
}

// TestFigure3RA reproduces Figure 3 (bottom): a stack store creates the
// reverse entry its matching load integrates against.
func TestFigure3RA(t *testing.T) {
	tb := New(512, 2, PolicyFull)
	p2, p8 := 2, 8

	// store r2, 8(sp) with sp->[p8], r2->[p2]: reverse entry
	// <load/8, p8 -> p2>.
	tb.Insert(Entry{
		Op: isa.OpLd, Imm: 8, In1: m(p8, 0), In2: m(0, 0),
		Out: m(p2, 0), Reverse: true, Value: 42, HasValue: true,
	})

	// load r2, 8(sp) with sp back to [p8]: integrates to p2.
	out, val, rev, hit := tb.LookupRev(isa.OpLd, 8, m(p8, 0), m(0, 0))
	if !hit || out.P != p2 || !rev || val != 42 {
		t.Errorf("bypass lookup = %v,%d,rev=%v,hit=%v", out, val, rev, hit)
	}
}

// TestFigure5CFInteraction reproduces Figure 5: with CF displacements in
// the signature, two loads reading [p1:4] match even though the addi that
// created the displacement was itself eliminated.
func TestFigure5CFInteraction(t *testing.T) {
	tb := New(512, 2, PolicyLoadsOnly)
	p1, p2 := 1, 2
	tb.Insert(Entry{Op: isa.OpLd, Imm: 8, In1: m(p1, 4), In2: m(0, 0), Out: m(p2, 0)})
	out, _, hit := tb.Lookup(isa.OpLd, 8, m(p1, 4), m(0, 0))
	if !hit || out.P != p2 {
		t.Errorf("displaced-signature integration failed: %v/%v", out, hit)
	}
	// A different displacement on the same register must miss.
	if _, _, hit := tb.Lookup(isa.OpLd, 8, m(p1, 8), m(0, 0)); hit {
		t.Error("mismatched displacement integrated")
	}
}

func TestInvalidatePhys(t *testing.T) {
	tb := New(512, 2, PolicyFull)
	tb.Insert(Entry{Op: isa.OpLd, Imm: 0, In1: m(1, 0), Out: m(3, 0)})
	tb.Insert(Entry{Op: isa.OpAdd, In1: m(3, 0), In2: m(2, 0), Out: m(4, 0)})
	tb.Insert(Entry{Op: isa.OpLd, Imm: 8, In1: m(5, 0), Out: m(6, 0)})

	tb.InvalidatePhys(3) // frees p3: kills both entries touching it
	if _, _, hit := tb.Lookup(isa.OpLd, 0, m(1, 0), m(0, 0)); hit {
		t.Error("entry with freed output register survived")
	}
	if _, _, hit := tb.Lookup(isa.OpAdd, 0, m(3, 0), m(2, 0)); hit {
		t.Error("entry with freed input register survived")
	}
	if _, _, hit := tb.Lookup(isa.OpLd, 8, m(5, 0), m(0, 0)); !hit {
		t.Error("unrelated entry invalidated")
	}
}

func TestInvalidateSignature(t *testing.T) {
	tb := New(512, 2, PolicyLoadsOnly)
	tb.Insert(Entry{Op: isa.OpLd, Imm: 8, In1: m(1, 0), In2: m(0, 0), Out: m(3, 0)})
	tb.InvalidateSignature(isa.OpLd, 8, m(1, 0), m(0, 0))
	if _, _, hit := tb.Lookup(isa.OpLd, 8, m(1, 0), m(0, 0)); hit {
		t.Error("invalidated signature still hits")
	}
}

func TestSetConflictEviction(t *testing.T) {
	tb := New(4, 2, PolicyLoadsOnly) // 2 sets x 2 ways: tiny on purpose
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
	tb := New(512, 2, PolicyLoadsOnly)
	tb.Insert(Entry{Op: isa.OpLd, Imm: 8, In1: m(1, 0), Out: m(3, 0), Value: 1, HasValue: true})
	tb.Insert(Entry{Op: isa.OpLd, Imm: 8, In1: m(1, 0), Out: m(9, 0), Value: 2, HasValue: true})
	out, val, hit := tb.Lookup(isa.OpLd, 8, m(1, 0), m(0, 0))
	if !hit || out.P != 9 || val != 2 {
		t.Errorf("refresh lookup = %v,%d,%v", out, val, hit)
	}
	if tb.Occupancy() != 1 {
		t.Errorf("duplicate signature occupies %d entries", tb.Occupancy())
	}
}

func TestPolicyCovers(t *testing.T) {
	loads := New(512, 2, PolicyLoadsOnly)
	full := New(512, 2, PolicyFull)
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
	tb := New(512, 2, PolicyLoadsOnly)
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
		tb := New(sets*2, 2, PolicyLoadsOnly)
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
