package renamer

import (
	"testing"
	"testing/quick"

	"reno/internal/isa"
	"reno/internal/refcount"
)

func TestFoldDispBasics(t *testing.T) {
	if s, ok := FoldDisp(0, 4); !ok || s != 4 {
		t.Errorf("FoldDisp(0,4) = %d,%v", s, ok)
	}
	if s, ok := FoldDisp(5, 6); !ok || s != 11 {
		t.Errorf("FoldDisp(5,6) = %d,%v", s, ok)
	}
	if s, ok := FoldDisp(-16, 16); !ok || s != 0 {
		t.Errorf("FoldDisp(-16,16) = %d,%v", s, ok)
	}
}

func TestFoldDispConservativeOverflow(t *testing.T) {
	// The hardware check examines only the top bits, so values beyond
	// DispBits-2 magnitude cancel folding even if the exact sum would fit.
	if _, ok := FoldDisp(9000, 1); ok {
		t.Error("large displacement folded despite conservative rule")
	}
	if _, ok := FoldDisp(1, 9000); ok {
		t.Error("large immediate folded despite conservative rule")
	}
	if _, ok := FoldDisp(8000, 100); !ok {
		t.Error("safe magnitudes refused")
	}
}

func TestFoldDispNeverOverflows(t *testing.T) {
	// Property: whenever FoldDisp says ok, the sum fits the hardware field.
	f := func(d, imm int16) bool {
		s, ok := FoldDisp(int32(d), int32(imm))
		if !ok {
			return true
		}
		return FitsDisp(int64(s)) && s == int32(d)+int32(imm)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10000}); err != nil {
		t.Fatal(err)
	}
}

func TestMapTableInitialState(t *testing.T) {
	rc := refcount.New(64)
	mt := New(rc)
	for r := isa.Reg(0); r < isa.NumLogicalRegs; r++ {
		m := mt.Lookup(r)
		if m.P != refcount.ZeroReg || m.D != 0 {
			t.Errorf("initial mapping of %v = %v", r, m)
		}
	}
}

func TestSetNewAndLookup(t *testing.T) {
	rc := refcount.New(64)
	mt := New(rc)
	p, _ := rc.Alloc()
	old := mt.SetNew(isa.Reg(3), p)
	if old.P != refcount.ZeroReg {
		t.Errorf("displaced mapping = %v", old)
	}
	if got := mt.Lookup(isa.Reg(3)); got.P != p || got.D != 0 {
		t.Errorf("lookup = %v", got)
	}
}

func TestSetSharedIncrements(t *testing.T) {
	rc := refcount.New(64)
	mt := New(rc)
	p, _ := rc.Alloc()
	mt.SetNew(isa.Reg(2), p)
	mt.SetShared(isa.Reg(3), Mapping{P: p, D: 4})
	if rc.Count(p) != 2 {
		t.Errorf("count after share = %d, want 2", rc.Count(p))
	}
	if got := mt.Lookup(isa.Reg(3)); got != (Mapping{P: p, D: 4}) {
		t.Errorf("shared mapping = %v", got)
	}
}

func TestZeroRegisterAlwaysZeroMapping(t *testing.T) {
	rc := refcount.New(64)
	mt := New(rc)
	p, _ := rc.Alloc()
	mt.SetNew(isa.RZero, p) // a buggy caller writing r31's entry
	if got := mt.Lookup(isa.RZero); got.P != refcount.ZeroReg {
		t.Errorf("zero register lookup = %v, want p0", got)
	}
}

func TestMappingString(t *testing.T) {
	if s := (Mapping{P: 5}).String(); s != "[p5]" {
		t.Errorf("plain mapping = %q", s)
	}
	if s := (Mapping{P: 5, D: -4}).String(); s != "[p5:-4]" {
		t.Errorf("displaced mapping = %q", s)
	}
}

// TestDisplacementChainAlgebra is the trackability property of Section 2.3:
// a chain of register-immediate additions folds to a single [p:d] whose d
// is the sum, as long as every step passes the conservative check.
func TestDisplacementChainAlgebra(t *testing.T) {
	f := func(imms []int8) bool {
		d := int32(0)
		var exact int64
		for _, imm8 := range imms {
			imm := int32(imm8)
			s, ok := FoldDisp(d, imm)
			if !ok {
				return true // chain broken; nothing to check
			}
			d = s
			exact += int64(imm)
			if int64(d) != exact {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Fatal(err)
	}
}
