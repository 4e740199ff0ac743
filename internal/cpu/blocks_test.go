package cpu

import (
	"math"
	"testing"

	"tridentsp/internal/branchpred"
	"tridentsp/internal/isa"
	"tridentsp/internal/memsys"
	"tridentsp/internal/program"
)

// buildProgram assembles raw instructions into a Program at base 0x1000.
func buildProgram(t *testing.T, insts []isa.Inst) *program.Program {
	t.Helper()
	code := make([]uint64, len(insts))
	for i, in := range insts {
		w, err := isa.EncodeChecked(in)
		if err != nil {
			t.Fatalf("inst %d: %v", i, err)
		}
		code[i] = w
	}
	return &program.Program{
		Base: 0x1000, Code: code, Entry: 0x1000, Name: "blocks-test",
	}
}

func newTestThread(p *program.Program) (*Thread, *ProgramSpace) {
	ps := NewProgramSpace(p)
	th := New(DefaultConfig(), ps, p.Entry, program.NewMemory(p),
		memsys.New(memsys.DefaultConfig()), branchpred.New(branchpred.DefaultConfig()))
	return th, ps
}

// runRef drives a thread through the one-step interpreter to completion.
func runRef(th *Thread) {
	for !th.Halted() {
		th.Step()
	}
}

// assertSameState compares the complete architectural, timing, taint, and
// memory-system state of two threads.
func assertSameState(t *testing.T, got, want *Thread) {
	t.Helper()
	if got.PC() != want.PC() {
		t.Errorf("pc diverged: compiled %#x, step %#x", got.PC(), want.PC())
	}
	if got.Now() != want.Now() {
		t.Errorf("cycle diverged: compiled %d, step %d", got.Now(), want.Now())
	}
	if got.Committed() != want.Committed() {
		t.Errorf("committed diverged: compiled %d, step %d", got.Committed(), want.Committed())
	}
	for r := isa.Reg(0); r < isa.NumRegs; r++ {
		if got.Reg(r) != want.Reg(r) {
			t.Errorf("r%d diverged: compiled %#x, step %#x", r, got.Reg(r), want.Reg(r))
		}
		if got.taintSrc[r] != want.taintSrc[r] {
			t.Errorf("taint[r%d] diverged: compiled %#x, step %#x",
				r, got.taintSrc[r], want.taintSrc[r])
		}
	}
	if got.hier.Stats != want.hier.Stats {
		t.Errorf("memsys stats diverged:\ncompiled %+v\nstep     %+v",
			got.hier.Stats, want.hier.Stats)
	}
}

// TestExecCompiledALUMatchesStep drives a run of every plain ALU shape —
// register-register, immediate, LDIH, FP, NOP, and LDA — through one
// compiled chain and through the one-step interpreter and requires
// identical architectural, timing, and taint state (taint is observable
// through LD stall classification in real runs, compared here directly).
func TestExecCompiledALUMatchesStep(t *testing.T) {
	seq := []isa.Inst{
		{Op: isa.LDI, Rd: 1, Imm: 7},
		{Op: isa.LDI, Rd: 2, Imm: 9},
		{Op: isa.ADD, Rd: 3, Ra: 1, Rb: 2},
		{Op: isa.MUL, Rd: 4, Ra: 3, Rb: 3},
		{Op: isa.SUBI, Rd: 4, Ra: 4, Imm: 5},
		{Op: isa.LDIH, Rd: 5, Ra: 1, Imm: 0x1234},
		{Op: isa.SLL, Rd: 6, Ra: 2, Rb: 1},
		{Op: isa.CMPLT, Rd: 7, Ra: 4, Rb: 6},
		{Op: isa.MOVE, Rd: 8, Ra: 7},
		{Op: isa.XORI, Rd: 9, Ra: 8, Imm: 0xff},
		{Op: isa.FADD, Rd: 10, Ra: 9, Rb: 4},
		{Op: isa.FMUL, Rd: 11, Ra: 10, Rb: 2},
		{Op: isa.NOP},
		{Op: isa.LDA, Rd: 12, Ra: 11, Imm: 64},
		{Op: isa.CMPEQI, Rd: 13, Ra: 12, Imm: 3},
		{Op: isa.HALT},
	}
	p := buildProgram(t, seq)

	ref, _ := newTestThread(p)
	runRef(ref)

	th, ps := newTestThread(p)
	cb := ps.CompiledAt(th.PC())
	if cb == nil {
		t.Fatal("no chain at entry")
	}
	if want := len(seq) - 1; cb.Len() != want {
		t.Fatalf("chain length %d, want %d (everything before HALT)", cb.Len(), want)
	}
	ex := th.ExecCompiled(cb, math.MaxUint64, math.MaxInt64, nil)
	if ex.N != cb.Len() || ex.Weight != uint64(ex.N) || ex.NeedSlow {
		t.Fatalf("chain retired %+v, want all %d", ex, cb.Len())
	}
	th.Step() // the HALT
	if !th.Halted() {
		t.Fatal("thread did not halt")
	}
	assertSameState(t, th, ref)
}

// TestExecCompiledStopsAtBudgetAndHorizon pins the stop semantics: the final
// retired instruction is exactly the one whose commit crossed the weight
// budget or the cycle horizon, never one earlier or later.
func TestExecCompiledStopsAtBudgetAndHorizon(t *testing.T) {
	var seq []isa.Inst
	for i := 0; i < 32; i++ {
		seq = append(seq, isa.Inst{Op: isa.ADDI, Rd: 1, Ra: 1, Imm: 1})
	}
	seq = append(seq, isa.Inst{Op: isa.HALT})
	p := buildProgram(t, seq)

	th, ps := newTestThread(p)
	ex := th.ExecCompiled(ps.CompiledAt(th.PC()), 5, math.MaxInt64, nil)
	if ex.N != 5 || ex.Weight != 5 {
		t.Fatalf("budget stop: %+v, want 5 retired", ex)
	}
	if got := th.Reg(1); got != 5 {
		t.Fatalf("r1 = %d after 5 adds, want 5", got)
	}
	if th.PC() != 0x1000+5*isa.WordSize {
		t.Fatalf("pc = %#x after budget stop, want %#x", th.PC(), 0x1000+5*isa.WordSize)
	}

	// Horizon stop: the reference loop runs until its clock reaches the
	// horizon; the chain must retire exactly as many instructions.
	th2, ps2 := newTestThread(p)
	ref, _ := newTestThread(p)
	horizon := int64(3)
	steps := 0
	for ref.Now() < horizon {
		ref.Step()
		steps++
	}
	ex2 := th2.ExecCompiled(ps2.CompiledAt(th2.PC()), math.MaxUint64, horizon, nil)
	if ex2.N != steps {
		t.Fatalf("horizon stop after %d instructions, reference loop stopped after %d", ex2.N, steps)
	}
	assertSameState(t, th2, ref)
}

// TestBlockCacheMidRunPatch is the block-invalidation contract test: patch
// an instruction mid-run — after its chain has been compiled and partially
// executed — and assert the rewritten instruction is what executes next.
func TestBlockCacheMidRunPatch(t *testing.T) {
	seq := []isa.Inst{
		{Op: isa.ADDI, Rd: 1, Ra: 1, Imm: 1}, // 0x1000
		{Op: isa.ADDI, Rd: 1, Ra: 1, Imm: 1}, // 0x1008
		{Op: isa.ADDI, Rd: 2, Ra: 2, Imm: 2}, // 0x1010 <- patched mid-run
		{Op: isa.ADDI, Rd: 3, Ra: 3, Imm: 3}, // 0x1018
		{Op: isa.HALT},
	}
	p := buildProgram(t, seq)
	th, ps := newTestThread(p)

	// Compile and run the first two instructions of the 4-instruction block.
	cb := ps.CompiledAt(0x1000)
	if cb == nil || cb.Len() != 4 {
		t.Fatalf("chain at entry: %v, want 4 instructions", cb)
	}
	if ex := th.ExecCompiled(cb, 2, math.MaxInt64, nil); ex.N != 2 {
		t.Fatalf("retired %d, want 2", ex.N)
	}
	if th.PC() != 0x1010 {
		t.Fatalf("pc = %#x, want 0x1010", th.PC())
	}
	// The chain at the resume point exists before the patch, so staleness
	// is actually possible.
	stale := ps.CompiledAt(th.PC())

	// Mid-run rewrite of the next instruction (the self-repair primitive is
	// exactly this: an in-place immediate/word rewrite of placed code).
	w, err := isa.EncodeChecked(isa.Inst{Op: isa.LDI, Rd: 2, Imm: 99})
	if err != nil {
		t.Fatal(err)
	}
	if err := ps.Patch(0x1010, w); err != nil {
		t.Fatal(err)
	}

	// The stale chain must be gone: the new chain starts with the rewritten
	// instruction, and executing it yields the new semantics.
	cb2 := ps.CompiledAt(th.PC())
	if cb2 == nil || cb2 == stale {
		t.Fatalf("chain not invalidated by the patch: %p (stale %p)", cb2, stale)
	}
	if ex := th.ExecCompiled(cb2, 1, math.MaxInt64, nil); ex.N != 1 {
		t.Fatal("patched instruction did not execute")
	}
	if got := th.Reg(2); got != 99 {
		t.Fatalf("r2 = %d after patched LDI, want 99 (stale chain executed)", got)
	}

	// Patching an eligible word into an ineligible one must split the run.
	hw, _ := isa.EncodeChecked(isa.Inst{Op: isa.HALT})
	if err := ps.Patch(0x1018, hw); err != nil {
		t.Fatal(err)
	}
	if ps.CompiledAt(0x1018) != nil {
		t.Fatal("chain survived a patch to an ineligible opcode")
	}
	if cb3 := ps.CompiledAt(0x1000); cb3 == nil || cb3.Len() != 3 {
		t.Fatalf("run not re-split after patch: %v, want 3 instructions", cb3)
	}
}

// TestBlockMembership pins the opcode partition: stall-charging and
// indirect-control ops must never enter a superblock; memory ops and
// conditional branches are members with their own kinds (the compiler
// relies on branches only ever appearing via memberBranch, i.e. last).
func TestBlockMembership(t *testing.T) {
	excluded := []isa.Op{isa.FDIV, isa.BR, isa.JMP, isa.HALT}
	for _, op := range excluded {
		if blockMember(op) != memberNo {
			t.Errorf("%v must not be a block member", op)
		}
	}
	plain := []isa.Op{
		isa.NOP, isa.ADD, isa.SUB, isa.MUL, isa.AND, isa.OR, isa.XOR,
		isa.SLL, isa.SRL, isa.CMPLT, isa.CMPEQ, isa.ADDI, isa.SUBI,
		isa.MULI, isa.ANDI, isa.ORI, isa.XORI, isa.SLLI, isa.SRLI,
		isa.CMPLTI, isa.CMPEQI, isa.LDA, isa.MOVE, isa.LDI, isa.LDIH,
		isa.FADD, isa.FMUL,
	}
	for _, op := range plain {
		if blockMember(op) != memberPlain {
			t.Errorf("%v must be a plain block member", op)
		}
	}
	for _, op := range []isa.Op{isa.LD, isa.LDNF, isa.ST, isa.PREFETCH} {
		if blockMember(op) != memberMem {
			t.Errorf("%v must be a memory block member", op)
		}
	}
	for _, op := range []isa.Op{isa.BEQ, isa.BNE, isa.BLT, isa.BGE} {
		if blockMember(op) != memberBranch {
			t.Errorf("%v must be a branch block member", op)
		}
	}
}

// TestExecCompiledInterference pins the issue-tax accounting: a chain
// executed under helper-thread interference charges the same inflated issue
// cost the one-step loop does, on both the fused-run fast case and the
// stepwise tail a budget stop forces.
func TestExecCompiledInterference(t *testing.T) {
	var seq []isa.Inst
	for i := 0; i < 16; i++ {
		seq = append(seq, isa.Inst{Op: isa.ADDI, Rd: 1, Ra: 1, Imm: 1})
	}
	seq = append(seq, isa.Inst{Op: isa.HALT})
	p := buildProgram(t, seq)

	ref, _ := newTestThread(p)
	ref.SetInterference(true)
	runRef(ref)

	th, ps := newTestThread(p)
	th.SetInterference(true)
	th.ExecCompiled(ps.CompiledAt(th.PC()), 5, math.MaxInt64, nil) // stepwise tail
	th.ExecCompiled(ps.CompiledAt(th.PC()), math.MaxUint64, math.MaxInt64, nil)
	th.Step()
	assertSameState(t, th, ref)
}

// TestBlockCacheShrinkGrow pins the SetSource length contract: re-pointing
// the cache at a shorter image trims the entry table, and growing it again
// yields correct chain lengths everywhere (no stale chains).
func TestBlockCacheShrinkGrow(t *testing.T) {
	mk := func(n int) []isa.Inst {
		insts := make([]isa.Inst, n)
		for i := range insts {
			insts[i] = isa.Inst{Op: isa.ADDI, Rd: 1, Ra: 1, Imm: 1}
		}
		return insts
	}
	c := NewBlockCache(0)
	c.SetSource(mk(8), nil)
	if cb := c.CompiledAt(0); cb == nil || cb.Len() != 8 {
		t.Fatalf("initial image: %v, want 8 instructions", cb)
	}

	c.SetSource(mk(3), nil)
	if len(c.ents) != 3 {
		t.Fatalf("ents not trimmed: len=%d, want 3", len(c.ents))
	}
	if cb := c.CompiledAt(0); cb == nil || cb.Len() != 3 {
		t.Fatalf("shrunk image: %v, want 3 instructions", cb)
	}
	if c.CompiledAt(5*isa.WordSize) != nil {
		t.Fatal("chain reported beyond the shrunk image")
	}

	c.SetSource(mk(6), nil)
	if cb := c.CompiledAt(0); cb == nil || cb.Len() != 6 {
		t.Fatalf("regrown image: %v, want 6 instructions", cb)
	}
	if cb := c.CompiledAt(4 * isa.WordSize); cb == nil || cb.Len() != 2 {
		t.Fatalf("regrown tail: %v, want 2 instructions", cb)
	}
}

// TestBlockCacheRegrowthReuse pins the SetSource regrowth contract. A trace
// placement appends to the code-cache image and re-points the block cache at
// the grown slice; word indices below the old length are unchanged, so a
// compiled chain whose content survived must be revalidated and reused — not
// recompiled, and (the old regrowth-pinning bug) not silently served stale
// from a recycled entry array. Changed content must recompile, and truncation
// must drop the tail outright.
func TestBlockCacheRegrowthReuse(t *testing.T) {
	mk := func(n int) []isa.Inst {
		// A branch-terminated block so appending afterwards can't extend it.
		insts := []isa.Inst{
			{Op: isa.ADDI, Rd: 1, Ra: 1, Imm: 1},
			{Op: isa.ADDI, Rd: 2, Ra: 2, Imm: 2},
			{Op: isa.BEQ, Ra: 1, Rb: 2, Imm: -2},
		}
		for i := 0; i < n; i++ {
			insts = append(insts, isa.Inst{Op: isa.ADDI, Rd: 3, Ra: 3, Imm: 1})
		}
		return insts
	}

	c := NewBlockCache(0)
	c.SetSource(mk(0), nil)
	cb1 := c.CompiledAt(0)
	if cb1 == nil {
		t.Fatal("initial compile failed")
	}
	base := c.Stats()

	// Append-style regrowth: same prefix content, longer image.
	c.SetSource(mk(5), nil)
	if cb2 := c.CompiledAt(0); cb2 != cb1 {
		t.Fatalf("regrowth reuse: %p, want %p (revalidated chain)", cb2, cb1)
	}
	s := c.Stats()
	if s.Revalidations != base.Revalidations+1 {
		t.Fatalf("Revalidations = %d, want %d", s.Revalidations, base.Revalidations+1)
	}
	if s.Compiles != base.Compiles {
		t.Fatalf("Compiles = %d, want %d (reuse must not recompile)", s.Compiles, base.Compiles)
	}

	// A block past the old image length must be compilable: the entry array
	// must cover the grown image (the regrowth-pinning bug left it at the old
	// length).
	tailPC := uint64(3) * isa.WordSize
	if c.CompiledAt(tailPC) == nil {
		t.Fatal("appended-region compile failed")
	}

	// Changed content at the same index must recompile, not reuse.
	changed := mk(5)
	changed[1].Imm = 99
	c.SetSource(changed, nil)
	cb3 := c.CompiledAt(0)
	if cb3 == nil {
		t.Fatal("recompile after content change failed")
	}
	if cb3 == cb1 {
		t.Fatal("changed-content block reused the stale chain")
	}
	s2 := c.Stats()
	if s2.Revalidations != s.Revalidations {
		t.Fatalf("changed content revalidated: %d, want %d", s2.Revalidations, s.Revalidations)
	}

	// Truncation drops the carried tail; lookups past the new end miss clean.
	c.SetSource(mk(5)[:2], nil)
	if c.CompiledAt(tailPC) != nil {
		t.Fatal("truncated tail still served a compiled chain")
	}
	if got := c.Stats().Resident; got != 1 {
		t.Fatalf("Resident = %d after truncation, want 1 (the carried head)", got)
	}
	c.DropCompiled()
	if got := c.Stats().Resident; got != 0 {
		t.Fatalf("Resident = %d after DropCompiled, want 0", got)
	}
}

// TestBlockCacheRunHeadMoves pins revalidation when a patch moves a run's
// head: the word that headed the run stops being a member, so the next
// member heads the shortened run, and its carried view — an offset into the
// old, longer chain — still matches the new run. Lookups anywhere in the new
// run reuse that chain at the right offsets instead of compiling.
func TestBlockCacheRunHeadMoves(t *testing.T) {
	seq := []isa.Inst{
		{Op: isa.ADDI, Rd: 1, Ra: 1, Imm: 1},                  // 0x00
		{Op: isa.ADDI, Rd: 2, Ra: 2, Imm: 2},                  // 0x08
		{Op: isa.ADDI, Rd: 3, Ra: 3, Imm: 3},                  // 0x10
		{Op: isa.ADDI, Rd: 4, Ra: 4, Imm: 4},                  // 0x18
		{Op: isa.BNE, Ra: 1, Imm: isa.BranchDisp(0x20, 0x08)}, // 0x20
		{Op: isa.HALT}, // 0x28
	}
	c := NewBlockCache(0)
	c.SetSource(seq, nil)
	if cb := c.CompiledAt(0x08); cb == nil || cb.Len() != 4 {
		t.Fatalf("initial view: %v, want 4 instructions", cb)
	}
	patched := append([]isa.Inst(nil), seq...)
	patched[0] = isa.Inst{Op: isa.HALT}
	c.SetSource(patched, nil)
	for pc := uint64(0x10); pc < 0x28; pc += isa.WordSize {
		cb := c.CompiledAt(pc)
		if cb == nil || cb.Entry() != pc || cb.Len() != int((0x28-pc)/isa.WordSize) {
			t.Fatalf("CompiledAt(%#x) after the head moved: %v", pc, cb)
		}
	}
	if cb := c.CompiledAt(0x08); cb == nil || cb.Len() != 4 {
		t.Fatalf("new run head: %v, want 4 instructions", cb)
	}
	if c.CompiledAt(0) != nil {
		t.Fatal("patched HALT still heads a chain")
	}
	if got := c.Stats().Compiles; got != 1 {
		t.Fatalf("Compiles = %d, want 1 (the moved run reuses its chain)", got)
	}
}
