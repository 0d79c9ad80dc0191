// Package workload generates the synthetic benchmark programs used in place
// of the paper's SPECint2000 and MediaBench Alpha binaries.
//
// The RENO optimizations key on program *idioms*, not on program semantics:
//
//   - register moves (argument shuffling, copy propagation leftovers),
//   - register-immediate additions (induction variables, pointer bumps,
//     explicit address computation, stack-frame management),
//   - stack spill/fill pairs around calls (RENO.RA's target),
//   - dynamically redundant loads (RENO.CSE's target),
//   - data-dependent branches and pointer chasing (what makes SPECint
//     load/memory-critical) versus long ALU dependence chains (what makes
//     MediaBench ALU-critical, Figure 9).
//
// Each benchmark is assembled from parameterized kernels whose static code
// is generated deterministically from a per-benchmark seed, so every run of
// a given benchmark executes the identical dynamic instruction stream. The
// per-benchmark Profile knobs are tuned so the dynamic instruction mixes
// land in the bands the paper reports (moves ~4% average, register-immediate
// additions 12%/17% SPEC/MediaBench averages, mpeg2.decode at the top, and
// crafty/vpr.place/mcf below 10%). The workload tests enforce those bands.
package workload

import (
	"context"
	"fmt"
	"math/rand"
	"strings"

	"reno/internal/asm"
	"reno/internal/emu"
	"reno/internal/isa"
)

// KernelKind identifies one of the code-idiom templates.
type KernelKind int

const (
	// KArraySweep walks an array with explicit address arithmetic and
	// accumulates; heavy in foldable register-immediate additions.
	KArraySweep KernelKind = iota
	// KPointerChase traverses a linked structure with dependent loads
	// (mcf/parser-like memory criticality).
	KPointerChase
	// KCallTree makes nested calls with genuine stack frames: sp
	// decrement, spills, fills, sp increment (RENO.RA's target idiom).
	KCallTree
	// KCompute runs ALU dependence chains with interleaved moves
	// (MediaBench-like ALU criticality).
	KCompute
	// KBitops mixes shifts and logical operations (gsm/pegwit-like).
	KBitops
	// KBranchy evaluates data-dependent branches on computed values
	// (crafty/twolf-like).
	KBranchy
	// KRedundant reloads recently loaded locations without intervening
	// stores (register-integration fodder: RENO.CSE).
	KRedundant
	// KMemcpy streams loads to stores with two bumped pointers
	// (mpeg2/jpeg-like).
	KMemcpy
)

var kernelNames = map[KernelKind]string{
	KArraySweep: "sweep", KPointerChase: "chase", KCallTree: "calls",
	KCompute: "compute", KBitops: "bitops", KBranchy: "branchy",
	KRedundant: "redun", KMemcpy: "memcpy",
}

func (k KernelKind) String() string { return kernelNames[k] }

// KernelWeight is one kernel instance in a profile with its per-invocation
// inner trip count.
type KernelWeight struct {
	Kind  KernelKind
	Trips int
}

// Profile describes one synthetic benchmark.
type Profile struct {
	Name  string
	Suite string // "SPECint", "MediaBench", or "micro"
	Seed  int64

	Kernels []KernelWeight

	// OuterIters is the number of main-loop iterations; the harness scales
	// it to hit a target dynamic instruction count.
	OuterIters int

	// MoveDensity is the probability of emitting a register-shuffle move at
	// each kernel "move point" (roughly three per inner-loop body). ~0.15
	// yields the paper's ~4% dynamic move average; mcf and mesa use more.
	MoveDensity float64

	// LowAddi switches loop decrements and pointer bumps from
	// register-immediate form (addi/subi) to register-register form,
	// modelling the compilation style of crafty/vpr.place/mcf, which the
	// paper reports below 10% reg-imm additions.
	LowAddi bool

	// FPFrac replaces that fraction of KCompute ALU ops with FP stand-ins
	// (mesa/epic). MulFrac likewise with multiplies.
	FPFrac  float64
	MulFrac float64

	// Mem is the data footprint in words for array kernels; larger values
	// push past the D$/L2 (gap/parser-like memory criticality). Only
	// min(Mem, 2048) words are explicitly initialized — the rest read
	// zero, which is architecturally fine and keeps init cost bounded.
	Mem int

	// ChaseNodes is the linked-list length for KPointerChase (2 words per
	// node; 4096 nodes = 64KB, which busts the 32KB D$).
	ChaseNodes int

	// BranchEntropy in [0,1]: 0 = perfectly predictable branches,
	// 1 = coin flips (from in-program arithmetic).
	BranchEntropy float64

	// CallDepth is the nesting depth for KCallTree frames; SpillRegs is
	// how many callee-saved registers each frame spills and fills.
	CallDepth int
	SpillRegs int

	// AddrOffsets makes KArraySweep compute addresses with explicit addi
	// chains of this length before each access (0 = direct disp(ld)).
	AddrOffsets int

	// Unroll is the unrolling factor of array kernels.
	Unroll int
}

// Program holds an assembled workload plus its profile.
type Program struct {
	Profile Profile
	Asm     string
	Code    []isa.Inst
	Symbols map[string]int
}

// Build generates and assembles the program for a profile.
func Build(p Profile) (*Program, error) {
	g := &gen{prof: p, rng: rand.New(rand.NewSource(p.Seed))}
	src := g.generate()
	prog, err := asm.Assemble(src)
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", p.Name, err)
	}
	return &Program{Profile: p, Asm: src, Code: prog.Code, Symbols: prog.Symbols}, nil
}

// MustBuild builds a workload or panics; profiles are static data, so a
// failure is a programming error.
func MustBuild(p Profile) *Program {
	w, err := Build(p)
	if err != nil {
		panic(err)
	}
	return w
}

// WarmupCount returns the number of dynamic instructions in the program's
// initialization prologue (data and linked-list setup), i.e., the count
// executed before control first reaches the main measurement loop. The
// harness fast-forwards through this region functionally before attaching
// the timing model, mirroring the paper's sampling-with-warmup methodology.
func (w *Program) WarmupCount() (uint64, error) {
	m, _, err := w.warm(nil)
	if err != nil {
		return 0, err
	}
	return m.ICount, nil
}

// Warm runs the program's warmup (see WarmupCount) and returns the state it
// reaches as a snapshot: every timed run of the program can start from a
// copy of it instead of running the warmup again. It polls ctx every
// emu.PollInterval instructions and returns ctx's error once it is done.
func (w *Program) Warm(ctx context.Context) (*emu.Snapshot, error) {
	m, ok, err := w.warm(ctx.Done())
	if err == nil && !ok {
		err = ctx.Err()
	}
	if err != nil {
		return nil, err
	}
	return m.Freeze(), nil
}

// maxWarmup bounds a warmup that never reaches its loop.
const maxWarmup = 50_000_000

// warm steps a fresh machine to the program's "outer" label (or its halt,
// if that comes first); a program without the label has no warmup. It
// polls done (nil: never) and reports false if done closed first.
func (w *Program) warm(done <-chan struct{}) (*emu.Machine, bool, error) {
	m := emu.New(w.Code)
	outer, ok := w.Symbols["outer"]
	if !ok {
		return m, true, nil
	}
	ok, err := m.Advance(done, maxWarmup+1, uint64(outer))
	if err != nil || !ok {
		return nil, ok, err
	}
	if !m.Halted && m.PC != uint64(outer) {
		return nil, false, fmt.Errorf("workload %s: warmup did not terminate", w.Profile.Name)
	}
	return m, true, nil
}

// gen carries generation state.
type gen struct {
	prof Profile
	rng  *rand.Rand
	b    strings.Builder
	lbl  int
}

func (g *gen) emit(format string, args ...any) {
	fmt.Fprintf(&g.b, format+"\n", args...)
}

func (g *gen) label(prefix string) string {
	g.lbl++
	return fmt.Sprintf("%s_%d", prefix, g.lbl)
}

// Register conventions inside generated code:
//
//	r1..r9    kernel scratch (r7..r9 are move-shuffle destinations)
//	r10..r13  main-loop owned (counter, mixer state, array base, spare)
//	r14       constant -1 (reg-reg loop decrements when LowAddi)
//	r15       constant stride (reg-reg pointer bumps when LowAddi)
//	r16..r19  arguments
//	r20..r25  callee-saved (spilled by call-tree frames)
//	r26 (ra)  return address
//	sp        stack pointer
const (
	rIter = "r10"
	rMix  = "r11"
	rBase = "r12"
	rCur  = "r13" // pointer-chase cursor, persists across kernel invocations
	rM1   = "r14"
	rStr  = "r15"
)

// movePoint emits a register-shuffle move with probability MoveDensity.
// Destinations are the dedicated shuffle registers, so the moves are always
// architecturally safe; sources are live values, so RENO.ME sees genuine
// dependence-carrying copies.
func (g *gen) movePoint(live ...string) {
	if g.rng.Float64() < g.prof.MoveDensity {
		dst := []string{"r7", "r8", "r9"}[g.rng.Intn(3)]
		src := live[g.rng.Intn(len(live))]
		g.emit("\tmove %s, %s", dst, src)
	}
}

// dec emits the loop decrement-and-branch for counter reg, honoring LowAddi.
func (g *gen) dec(reg, target string) {
	if g.prof.LowAddi {
		g.emit("\tadd %s, %s, %s", reg, reg, rM1)
	} else {
		g.emit("\tsubi %s, %s, 1", reg, reg)
	}
	g.emit("\tbne %s, zero, %s", reg, target)
}

// bump advances a pointer register, honoring LowAddi.
func (g *gen) bump(reg string, amount int) {
	if g.prof.LowAddi {
		g.emit("\tadd %s, %s, %s", reg, reg, rStr)
	} else {
		g.emit("\taddi %s, %s, %d", reg, reg, amount)
	}
}

// filler emits n register-register ALU ops that consume issue bandwidth and
// dilute the reg-imm-add fraction the way real computation does, without
// lengthening the loop-carried dependence chain: they read acc but write
// side registers, so the recurrences that remain critical are the induction
// variables and pointer bumps — the foldable idioms real code serializes on.
func (g *gen) filler(n int, acc string) {
	side := [...]string{"r17", "r19", "r27", "r28"}
	ops := [...]string{"add", "xor", "sub", "or", "and"}
	for i := 0; i < n; i++ {
		d := side[g.rng.Intn(len(side))]
		s1 := side[g.rng.Intn(len(side))]
		g.emit("\t%s %s, %s, %s", ops[g.rng.Intn(len(ops))], d, s1, acc)
	}
}

func (g *gen) generate() string {
	p := g.prof

	g.emit("# synthetic workload %q (suite %s, seed %d)", p.Name, p.Suite, p.Seed)
	g.emit("start:")
	g.emit("\tli %s, %d", rIter, max(1, p.OuterIters))
	g.emit("\tli %s, %d", rMix, 12345+p.Seed%1000)
	g.emit("\tli %s, %d", rBase, 1<<16)
	g.emit("\tli %s, -1", rM1)
	g.emit("\tli %s, 2", rStr)
	g.emit("\tli r6, %d", 7+p.Seed%13)

	// Initialize a bounded prefix of the data region: arr[i] = i*i + 17.
	initWords := min(max(64, p.Mem), 1024)
	g.emit("\tli r1, %d", initWords)
	g.emit("\tmove r2, %s", rBase)
	g.emit("init_loop:")
	g.emit("\tmul r3, r1, r1")
	g.emit("\taddi r3, r3, 17")
	g.emit("\tst r3, 0(r2)")
	g.emit("\taddi r2, r2, 1")
	g.emit("\tsubi r1, r1, 1")
	g.emit("\tbne r1, zero, init_loop")

	if needsChase(p) {
		g.genChaseInit(max(16, p.ChaseNodes))
		g.emit("\tli %s, %d", rCur, 1<<17) // chase cursor starts at the head
	}

	g.emit("outer:")
	for _, live := range []string{rBase, rMix, rIter} {
		g.movePoint(live)
	}
	for ki, kw := range p.Kernels {
		g.emit("\tcall kern_%d_%s", ki, kw.Kind)
	}
	g.emit("\tsubi %s, %s, 1", rIter, rIter)
	g.emit("\tbne %s, zero, outer", rIter)
	g.emit("\thalt")

	for ki, kw := range p.Kernels {
		g.genKernel(ki, kw)
	}
	return g.b.String()
}

func needsChase(p Profile) bool {
	for _, k := range p.Kernels {
		if k.Kind == KPointerChase {
			return true
		}
	}
	return false
}

// genChaseInit builds a stride-permuted singly linked list at word address
// 1<<17: node i occupies 2 words (next pointer, payload). A co-prime stride
// yields one full cycle through all nodes.
func (g *gen) genChaseInit(nodes int) {
	base := 1 << 17
	step := 7
	for step < nodes && nodes%step == 0 {
		step += 2
	}
	g.emit("# linked list init: %d nodes at %d, step %d", nodes, base, step)
	g.emit("\tli r1, %d", base)
	g.emit("\tli r2, %d", nodes)
	g.emit("\tli r3, 0")
	g.emit("chase_init:")
	g.emit("\taddi r4, r3, %d", step)
	g.emit("\tblt r4, r2, chase_nowrap")
	g.emit("\tsub r4, r4, r2")
	g.emit("chase_nowrap:")
	g.emit("\tadd r5, r4, r4")
	g.emit("\tadd r5, r5, r1") // &node[next]
	g.emit("\tadd r6, r3, r3")
	g.emit("\tadd r6, r6, r1") // &node[i]
	g.emit("\tst r5, 0(r6)")
	g.emit("\tst r3, 1(r6)")
	g.emit("\taddi r3, r3, 1")
	g.emit("\tblt r3, r2, chase_init")
	g.emit("\tli r6, %d", 7+g.prof.Seed%13) // restore mixer constant
}

func (g *gen) genKernel(ki int, kw KernelWeight) {
	name := fmt.Sprintf("kern_%d_%s", ki, kw.Kind)
	g.emit("%s:", name)
	switch kw.Kind {
	case KArraySweep:
		g.genArraySweep(kw.Trips)
	case KPointerChase:
		g.genPointerChase(kw.Trips)
	case KCallTree:
		g.genCallTree(ki, kw.Trips)
		return // emits its own ret plus the frame functions
	case KCompute:
		g.genCompute(kw.Trips)
	case KBitops:
		g.genBitops(kw.Trips)
	case KBranchy:
		g.genBranchy(kw.Trips)
	case KRedundant:
		g.genRedundant(kw.Trips)
	case KMemcpy:
		g.genMemcpy(kw.Trips)
	}
	g.emit("\tret")
}

// genArraySweep: the address-arithmetic idiom. With AddrOffsets > 0 the
// address is computed by an explicit addi chain feeding the load — exactly
// the foldable pattern of Figure 2 in the paper.
func (g *gen) genArraySweep(trips int) {
	p := g.prof
	unroll := max(1, p.Unroll)
	loop := g.label("sweep")
	g.emit("\tli r1, %d", max(1, trips))
	g.emit("\tmove r2, %s", rBase)
	g.emit("\tli r3, 0")
	g.emit("\tli r18, %d", (1<<16)+min(max(64, p.Mem), 30000)) // sweep limit
	g.emit("%s:", loop)
	for u := 0; u < unroll; u++ {
		if p.AddrOffsets > 0 && g.rng.Float64() < 0.6 {
			// Explicit addi-based address computation (the Figure 2
			// idiom). Deeper chains interleave a real use between the
			// addis, as compiled code does — adjacent dependent addis
			// would have been folded statically.
			g.emit("\taddi r4, r2, %d", 1+g.rng.Intn(8))
			for c := 1; c < p.AddrOffsets; c++ {
				g.emit("\txor r6, r6, r4")
				g.emit("\taddi r4, r4, %d", 1+g.rng.Intn(8))
			}
			g.emit("\tld r5, %d(r4)", g.rng.Intn(4))
		} else {
			g.emit("\tld r5, %d(r2)", u*3%16)
		}
		g.emit("\tadd r3, r3, r5")
		g.filler(3+g.rng.Intn(2), "r3")
		g.movePoint("r3", "r5", "r2")
		if u%2 == 1 {
			g.emit("\tst r3, %d(r2)", 16+u)
		}
		g.bump("r2", 1+u%3)
	}
	// Wrap the pointer to stay within the footprint.
	g.emit("\tblt r2, r18, %s_nowrap", loop)
	g.emit("\tmove r2, %s", rBase)
	g.emit("%s_nowrap:", loop)
	g.dec("r1", loop)
	g.emit("\tmove r16, r3")
}

// genPointerChase: dependent-load chain through the linked list. The chase
// cursor (r13) persists across invocations so the walk covers the whole
// footprint instead of re-touching the head nodes — that coverage is what
// makes the memory-bound profiles actually memory-bound.
func (g *gen) genPointerChase(trips int) {
	loop := g.label("chase")
	g.emit("\tli r1, %d", max(1, trips))
	g.emit("\tmove r2, %s", rCur)
	g.emit("\tli r3, 0")
	g.emit("%s:", loop)
	g.emit("\tld r4, 1(r2)") // payload
	g.movePoint("r4", "r2")
	g.emit("\tadd r3, r3, r4")
	g.filler(3, "r3")
	g.movePoint("r3", "r2", "r4")
	g.emit("\tld r2, 0(r2)") // next: the serializing load
	g.movePoint("r2", "r3")
	g.dec("r1", loop)
	g.emit("\tmove %s, r2", rCur) // persist the cursor
	g.emit("\tmove r16, r3")
}

// genCallTree: nested calls with real stack frames. Each level spills
// callee-saved registers, works, calls the next level, restores — the
// producer-store-load-consumer chains RENO.RA bypasses, including the
// sp-decrement/increment pairs its reverse IT entries bootstrap across.
func (g *gen) genCallTree(ki, trips int) {
	p := g.prof
	depth := max(1, p.CallDepth)
	spills := min(max(0, p.SpillRegs), 6)
	loop := g.label("calls")
	// The kernel itself makes calls, so it needs its own frame for ra.
	g.emit("\tsubi sp, sp, 2")
	g.emit("\tst ra, 0(sp)")
	g.emit("\tli r1, %d", max(1, trips))
	g.emit("%s:", loop)
	g.emit("\tmove r16, r1") // argument marshal
	g.emit("\tcall kt_%d_lvl0", ki)
	g.movePoint("r0", "r1")
	g.dec("r1", loop)
	g.emit("\tld ra, 0(sp)")
	g.emit("\taddi sp, sp, 2")
	g.emit("\tret")

	frame := 8 + spills
	for lvl := 0; lvl < depth; lvl++ {
		g.emit("kt_%d_lvl%d:", ki, lvl)
		g.emit("\tsubi sp, sp, %d", frame)
		g.emit("\tst ra, 0(sp)")
		for s := 0; s < spills; s++ {
			g.emit("\tst r%d, %d(sp)", 20+s, 1+s)
		}
		for s := 0; s < spills; s++ {
			g.emit("\taddi r%d, r16, %d", 20+s, s+1)
		}
		g.emit("\tadd r2, r16, r16")
		g.filler(3, "r2")
		if lvl+1 < depth {
			g.emit("\tmove r16, r2")
			g.emit("\tcall kt_%d_lvl%d", ki, lvl+1)
			g.emit("\tadd r2, r0, r2")
		}
		for s := 0; s < spills; s++ {
			g.emit("\tadd r2, r2, r%d", 20+s)
		}
		g.emit("\tmove r0, r2") // return value marshal
		for s := 0; s < spills; s++ {
			g.emit("\tld r%d, %d(sp)", 20+s, 1+s)
		}
		g.emit("\tld ra, 0(sp)")
		g.emit("\taddi sp, sp, %d", frame)
		g.emit("\tret")
	}
}

// genCompute: ALU dependence chains with interleaved moves. MulFrac/FPFrac
// inject long-latency operations.
func (g *gen) genCompute(trips int) {
	p := g.prof
	loop := g.label("comp")
	g.emit("\tli r1, %d", max(1, trips))
	g.emit("\tmove r2, %s", rMix)
	g.emit("\tli r3, 7")
	g.emit("%s:", loop)
	chain := 8 + g.rng.Intn(5)
	lastWasAddi := false
	for c := 0; c < chain; c++ {
		r := g.rng.Float64()
		switch {
		case r < p.MulFrac:
			g.emit("\tmul r2, r2, r3")
			lastWasAddi = false
		case r < p.MulFrac+p.FPFrac:
			if g.rng.Intn(2) == 0 {
				g.emit("\tfadd r2, r2, r3")
			} else {
				g.emit("\tfmul r2, r2, r3")
			}
			lastWasAddi = false
		case r < p.MulFrac+p.FPFrac+0.26 && !lastWasAddi:
			// Foldable register-immediate addition. Adjacent dependent
			// addis never occur: a -O3 compiler folds those statically
			// (the paper's Section 3.2 makes the same observation).
			g.emit("\taddi r2, r2, %d", 1+g.rng.Intn(16))
			lastWasAddi = true
		default:
			g.emit("\t%s r2, r2, r3", []string{"add", "xor", "sub", "or"}[g.rng.Intn(4)])
			lastWasAddi = false
		}
		if c%4 == 3 {
			g.movePoint("r2", "r3")
		}
	}
	g.emit("\tadd r3, r3, r6")
	g.dec("r1", loop)
	g.emit("\tmove %s, r2", rMix)
}

// genBitops: shift/logical mix on loaded data.
func (g *gen) genBitops(trips int) {
	loop := g.label("bits")
	g.emit("\tli r1, %d", max(1, trips))
	g.emit("\tmove r2, %s", rBase)
	g.emit("\tli r3, 0")
	g.emit("%s:", loop)
	g.emit("\tld r4, 0(r2)")
	g.emit("\tslli r5, r4, 3")
	g.emit("\tsrli r6, r4, 5")
	g.emit("\txor r5, r5, r6")
	g.emit("\tandi r5, r5, 0x7fff")
	g.emit("\tori r5, r5, 0x11")
	g.emit("\tsll r4, r4, r3")
	g.emit("\tsra r4, r4, r3")
	g.emit("\tadd r3, r3, r5")
	g.emit("\tandi r3, r3, 63")
	g.movePoint("r3", "r5")
	g.bump("r2", 2)
	g.dec("r1", loop)
	g.emit("\tst r3, 4(%s)", rBase)
	g.emit("\tli r6, %d", 7+g.prof.Seed%13) // r6 was clobbered; restore mixer constant
}

// genBranchy: data-dependent branches driven by an in-program mixer tuned
// to the requested entropy. The wider the mask, the rarer and more
// predictable the taken branch.
func (g *gen) genBranchy(trips int) {
	p := g.prof
	loop := g.label("br")
	taken := g.label("brt")
	done := g.label("brd")
	g.emit("\tli r1, %d", max(1, trips))
	g.emit("\tli r3, 0")
	g.emit("%s:", loop)
	g.emit("\tmul %s, %s, %s", rMix, rMix, rMix)
	g.emit("\tadd %s, %s, r6", rMix, rMix)
	mask := 7
	if p.BranchEntropy > 0.66 {
		mask = 1
	} else if p.BranchEntropy > 0.33 {
		mask = 3
	}
	g.emit("\tsrli r4, %s, 4", rMix)
	g.emit("\tandi r4, r4, %d", mask)
	g.filler(2, "r3")
	g.movePoint("r3", "r4")
	g.emit("\tbne r4, zero, %s", taken)
	g.emit("\taddi r3, r3, 1")
	g.emit("\tjmp %s", done)
	g.emit("%s:", taken)
	g.emit("\tsub r3, r3, r4")
	g.emit("\tadd r3, r3, r6")
	g.emit("%s:", done)
	g.dec("r1", loop)
	g.emit("\tmove r17, r3")
}

// genRedundant: reload the same addresses repeatedly without intervening
// stores — RENO.CSE food. The base register stays unchanged so the IT
// signatures match.
func (g *gen) genRedundant(trips int) {
	loop := g.label("red")
	g.emit("\tli r1, %d", max(1, trips))
	g.emit("\tmove r2, %s", rBase)
	g.emit("\tli r3, 0")
	g.emit("%s:", loop)
	// Two fresh loads, then the same two again (dynamically redundant):
	// roughly one in seven instructions integrates, a realistic density —
	// redundancy in compiled code is sparse, not wall-to-wall.
	for rep := 0; rep < 2; rep++ {
		g.emit("\tld r4, 8(r2)")
		g.emit("\tadd r3, r3, r4")
		g.emit("\tld r5, 16(r2)")
		g.emit("\txor r3, r3, r5")
		g.filler(3, "r3")
	}
	g.movePoint("r3", "r4")
	g.dec("r1", loop)
	g.emit("\tst r3, 24(r2)")
}

// genMemcpy: streaming copy with two bumped pointers.
func (g *gen) genMemcpy(trips int) {
	loop := g.label("cpy")
	g.emit("\tli r1, %d", max(1, trips))
	g.emit("\tmove r2, %s", rBase)
	g.emit("\taddi r3, r2, 4096")
	g.emit("%s:", loop)
	g.emit("\tld r4, 0(r2)")
	g.emit("\taddi r4, r4, 1")
	g.emit("\tst r4, 0(r3)")
	g.emit("\tld r5, 1(r2)")
	g.emit("\txor r5, r5, r6")
	g.emit("\tadd r5, r5, r4")
	g.emit("\tst r5, 1(r3)")
	g.movePoint("r4", "r5", "r2")
	g.bump("r2", 2)
	g.bump("r3", 2)
	g.dec("r1", loop)
}
