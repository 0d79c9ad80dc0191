package bpred

import (
	"reflect"
	"testing"

	"reno/internal/emu"
	"reno/internal/isa"
	"reno/internal/workload"
)

// TestResetMatchesNew: a predictor trained on the control transfers of a
// region of gzip, as the pipeline predicts and trains them, once reset
// equals a newly built one in every field, unexported state included.
func TestResetMatchesNew(t *testing.T) {
	prof, _ := workload.ByName("gzip")
	trace, err := emu.CollectTrace(workload.MustBuild(workload.Scale(prof, 0.2)).Code, 20_000)
	if err != nil {
		t.Fatal(err)
	}
	p := New(Default())
	for _, d := range trace {
		cls := d.Facts.Class()
		if cls != isa.ClassBranch && cls != isa.ClassCall && cls != isa.ClassReturn {
			continue
		}
		p.Predict(d.PC, d.Inst, cls)
		switch {
		case cls == isa.ClassBranch && d.Inst.Op != isa.OpJmp && d.Inst.Op != isa.OpJr:
			p.UpdateDir(d.PC, d.Taken)
			if d.Taken {
				p.UpdateTarget(d.PC, d.NextPC)
			}
		case cls == isa.ClassReturn:
			p.NoteRASOutcome(true)
		case d.Taken:
			p.UpdateTarget(d.PC, d.NextPC)
		}
	}
	fresh := New(Default())
	if p.DirLookups == 0 || p.RASPops == 0 || reflect.DeepEqual(p, fresh) {
		t.Fatal("the region left the predictor as built")
	}
	p.Reset()
	if !reflect.DeepEqual(p, fresh) {
		t.Error("a reset predictor differs from a newly built one")
	}
}

func TestBimodalLearnsBias(t *testing.T) {
	p := New(Default())
	pc := uint64(100)
	for i := 0; i < 10; i++ {
		p.UpdateDir(pc, true)
	}
	if !p.PredictDir(pc) {
		t.Error("always-taken branch predicted not-taken after training")
	}
	for i := 0; i < 10; i++ {
		p.UpdateDir(pc, false)
	}
	if p.PredictDir(pc) {
		t.Error("retrained branch still predicted taken")
	}
}

func TestGshareLearnsPattern(t *testing.T) {
	// Alternating T/N/T/N is unlearnable for bimodal but trivial for
	// gshare+chooser given history correlation.
	p := New(Default())
	pc := uint64(0x40)
	correct := 0
	total := 2000
	for i := 0; i < total; i++ {
		taken := i%2 == 0
		if p.PredictDir(pc) == taken {
			correct++
		}
		p.UpdateDir(pc, taken)
	}
	// Allow warmup: accuracy over the whole run should still be high.
	if acc := float64(correct) / float64(total); acc < 0.9 {
		t.Errorf("alternating pattern accuracy = %.2f, want >= 0.9", acc)
	}
}

func TestChooserArbitration(t *testing.T) {
	// A strongly biased branch should be predicted well regardless of
	// history noise (bimodal wins); accuracy proves arbitration works.
	p := New(Default())
	correct, total := 0, 3000
	for i := 0; i < total; i++ {
		pcA := uint64(0x100)
		taken := i%16 != 0 // 15/16 taken
		if p.PredictDir(pcA) == taken {
			correct++
		}
		p.UpdateDir(pcA, taken)
		// Interleave a noisy branch to pollute history.
		p.UpdateDir(uint64(0x200), i%3 == 0)
	}
	if acc := float64(correct) / float64(total); acc < 0.85 {
		t.Errorf("biased branch accuracy = %.2f, want >= 0.85", acc)
	}
}

func TestBTBInsertLookup(t *testing.T) {
	p := New(Default())
	if _, ok := p.PredictTarget(123); ok {
		t.Error("empty BTB hit")
	}
	p.UpdateTarget(123, 456)
	tgt, ok := p.PredictTarget(123)
	if !ok || tgt != 456 {
		t.Errorf("BTB lookup = %d,%v; want 456,true", tgt, ok)
	}
	p.UpdateTarget(123, 789) // retarget
	tgt, _ = p.PredictTarget(123)
	if tgt != 789 {
		t.Errorf("BTB retarget = %d, want 789", tgt)
	}
}

func TestBTBConflictEviction(t *testing.T) {
	cfg := Default()
	p := New(cfg)
	sets := uint64(cfg.BTBEntries / cfg.BTBWays)
	// Fill one set past associativity.
	for i := 0; i <= cfg.BTBWays; i++ {
		pc := uint64(i)*sets + 7
		p.UpdateTarget(pc, pc*10)
	}
	// The first inserted entry should have been evicted.
	if _, ok := p.PredictTarget(7); ok {
		t.Error("LRU entry not evicted on conflict")
	}
	// The last should be present.
	last := uint64(cfg.BTBWays)*sets + 7
	if _, ok := p.PredictTarget(last); !ok {
		t.Error("most recent entry missing")
	}
}

func TestRASPairing(t *testing.T) {
	p := New(Default())
	p.PushRAS(11)
	p.PushRAS(22)
	p.PushRAS(33)
	if got := p.PopRAS(); got != 33 {
		t.Errorf("pop1 = %d", got)
	}
	if got := p.PopRAS(); got != 22 {
		t.Errorf("pop2 = %d", got)
	}
	p.PushRAS(44)
	if got := p.PopRAS(); got != 44 {
		t.Errorf("pop3 = %d", got)
	}
	if got := p.PopRAS(); got != 11 {
		t.Errorf("pop4 = %d", got)
	}
}

func TestRASWraparound(t *testing.T) {
	cfg := Default()
	p := New(cfg)
	n := cfg.RASEntries + 5
	for i := 0; i < n; i++ {
		p.PushRAS(uint64(i))
	}
	// The most recent RASEntries survive; deeper frames were overwritten.
	for i := n - 1; i >= n-cfg.RASEntries; i-- {
		if got := p.PopRAS(); got != uint64(i) {
			t.Fatalf("pop after wrap = %d, want %d", got, i)
		}
	}
}

func TestPredictFullFlow(t *testing.T) {
	p := New(Default())
	// Direct jump: always exact.
	jmp := isa.Inst{Op: isa.OpJmp, Imm: 10}
	if got := p.Predict(100, jmp, isa.Predecode(jmp).Class()); got != 111 {
		t.Errorf("jmp predict = %d, want 111", got)
	}
	// Call pushes RAS and targets directly.
	call := isa.Inst{Op: isa.OpJal, Rd: isa.RRA, Imm: 5}
	if got := p.Predict(200, call, isa.Predecode(call).Class()); got != 206 {
		t.Errorf("jal predict = %d, want 206", got)
	}
	// Return pops the RAS.
	ret := isa.Inst{Op: isa.OpJr, Rs: isa.RRA}
	if got := p.Predict(206, ret, isa.Predecode(ret).Class()); got != 201 {
		t.Errorf("ret predict = %d, want 201", got)
	}
	// Untrained conditional: falls through (weakly not-taken init).
	br := isa.Branch(isa.OpBne, 1, 2, -4)
	if got := p.Predict(300, br, isa.Predecode(br).Class()); got != 301 {
		t.Errorf("cold branch predict = %d, want 301 (fall through)", got)
	}
	// Train taken; now predicts the computed target even without BTB.
	for i := 0; i < 4; i++ {
		p.UpdateDir(300, true)
	}
	if got := p.Predict(300, br, isa.Predecode(br).Class()); got != 297 {
		t.Errorf("trained branch predict = %d, want 297", got)
	}
}

func TestAccuracyCounter(t *testing.T) {
	p := New(Default())
	for i := 0; i < 100; i++ {
		p.UpdateDir(50, true)
	}
	if acc := p.Accuracy(); acc < 0.9 {
		t.Errorf("accuracy = %.2f after monotone training", acc)
	}
}
