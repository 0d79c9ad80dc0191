package storesets

import (
	"reflect"
	"testing"

	"reno/internal/emu"
	"reno/internal/isa"
	"reno/internal/workload"
)

func TestColdLoadUnconstrained(t *testing.T) {
	p := New(10, 64)
	if _, c := p.LookupLoad(100); c {
		t.Error("cold load constrained")
	}
}

func TestViolationCreatesDependence(t *testing.T) {
	p := New(10, 64)
	loadPC, storePC := uint64(100), uint64(200)
	p.Violation(loadPC, storePC)

	// Store fetched in-flight with tag 7: the load must now wait on it.
	p.NoteStoreFetched(storePC, 7)
	tag, c := p.LookupLoad(loadPC)
	if !c || tag != 7 {
		t.Errorf("load constraint = %d,%v; want 7,true", tag, c)
	}

	// After the store retires, the load is free again.
	p.NoteStoreRetired(storePC, 7)
	if _, c := p.LookupLoad(loadPC); c {
		t.Error("load still constrained after store retired")
	}
}

func TestSetMerging(t *testing.T) {
	p := New(10, 64)
	p.Violation(100, 200) // set A: {100, 200}
	p.Violation(101, 201) // set B: {101, 201}
	p.Violation(100, 201) // merge: both should land in min(A,B)
	p.NoteStoreFetched(201, 9)
	if tag, c := p.LookupLoad(100); !c || tag != 9 {
		t.Errorf("merged set lookup = %d,%v; want 9,true", tag, c)
	}
}

func TestStoreJoinsExistingSet(t *testing.T) {
	p := New(10, 64)
	p.Violation(100, 200)
	p.Violation(100, 300) // store 300 joins load 100's set
	p.NoteStoreFetched(300, 4)
	if tag, c := p.LookupLoad(100); !c || tag != 4 {
		t.Errorf("lookup = %d,%v; want 4,true", tag, c)
	}
}

func TestRetireOnlyClearsOwnTag(t *testing.T) {
	p := New(10, 64)
	p.Violation(100, 200)
	p.NoteStoreFetched(200, 5)
	p.NoteStoreFetched(200, 6) // newer instance of the same static store
	p.NoteStoreRetired(200, 5) // old instance retires; 6 still in flight
	if tag, c := p.LookupLoad(100); !c || tag != 6 {
		t.Errorf("lookup = %d,%v; want 6,true", tag, c)
	}
}

func TestSquash(t *testing.T) {
	p := New(10, 64)
	p.Violation(100, 200)
	p.NoteStoreFetched(200, 5)
	p.Squash(func(tag uint32) bool { return tag == 5 })
	if _, c := p.LookupLoad(100); c {
		t.Error("squashed store still constrains load")
	}
}

// TestReset: a predictor trained on the loads and stores of a region of
// gzip (a violation whenever a load reads an address a store wrote),
// once reset, equals a newly built one in every field, unexported
// state included.
func TestReset(t *testing.T) {
	prof, _ := workload.ByName("gzip")
	trace, err := emu.CollectTrace(workload.MustBuild(workload.Scale(prof, 0.2)).Code, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	p := New(12, 64)
	storeAt := map[uint64]uint64{} // address -> PC of its last store
	for i, d := range trace {
		switch d.Facts.Class() {
		case isa.ClassStore:
			p.NoteStoreFetched(d.PC, uint32(i))
			storeAt[d.EA] = d.PC
		case isa.ClassLoad:
			p.LookupLoad(d.PC)
			if pc, ok := storeAt[d.EA]; ok {
				p.Violation(d.PC, pc)
			}
		}
	}
	fresh := New(12, 64)
	if p.Assignments == 0 || reflect.DeepEqual(p, fresh) {
		t.Fatal("the region left the predictor as built")
	}
	p.Reset()
	if !reflect.DeepEqual(p, fresh) {
		t.Error("a reset predictor differs from a newly built one")
	}
}

func TestManySetsWrap(t *testing.T) {
	p := New(10, 4) // only 4 sets: IDs must wrap without panicking
	for i := uint64(0); i < 20; i++ {
		p.Violation(i*2, i*2+1)
	}
}
