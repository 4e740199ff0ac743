package cpu

import (
	"testing"

	"tridentsp/internal/branchpred"
	"tridentsp/internal/isa"
	"tridentsp/internal/memsys"
	"tridentsp/internal/program"
)

// TestExecFunctionalWarmPrefetch covers the prefetch arms of functional
// fast-forward: PREFETCH, an LDNF to a mapped word, and an LDNF to an
// unmapped address. Architectural state must match the one-step
// interpreter over the same code (the unmapped LDNF reads 0); with a
// warm hierarchy probe both prefetched lines land in L1, and without
// probes the hierarchy is left alone.
func TestExecFunctionalWarmPrefetch(t *testing.T) {
	b := program.NewBuilder("ffwd-prefetch", 0x1000, 0x100000)
	ldnfAddr := b.AllocWords(77)
	b.AllocWords(make([]uint64, 32)...) // keep the two targets on separate lines
	pfAddr := b.AllocWords(5)
	b.Ldi(1, ldnfAddr)
	b.Ldi(4, pfAddr)
	b.Emit(isa.Inst{Op: isa.PREFETCH, Ra: 4})
	b.Emit(isa.Inst{Op: isa.LDNF, Rd: 2, Ra: 1})            // mapped -> 77
	b.Emit(isa.Inst{Op: isa.LDNF, Rd: 3, Ra: 1, Imm: 8192}) // unmapped -> 0
	b.Halt()
	p := b.MustBuild()

	newThread := func() (*Thread, *memsys.Hierarchy) {
		h := memsys.New(memsys.DefaultConfig())
		return New(DefaultConfig(), NewProgramSpace(p), p.Entry, program.NewMemory(p), h,
			branchpred.New(branchpred.DefaultConfig())), h
	}
	ref, _ := newThread()
	runRef(ref)
	if ref.Reg(2) != 77 || ref.Reg(3) != 0 {
		t.Fatalf("reference LDNF values r2=%d r3=%d, want 77 and 0", ref.Reg(2), ref.Reg(3))
	}

	for _, warm := range []bool{false, true} {
		th, h := newThread()
		if h.Line(ldnfAddr) == h.Line(pfAddr) {
			t.Fatal("prefetch targets share a cache line")
		}
		var probes *FFProbes
		if warm {
			probes = &FFProbes{Hier: h}
		}
		th.ExecFunctional(p.Decoded(), p.Base, 100, probes)
		if !th.Halted() || th.PC() != ref.PC() {
			t.Errorf("warm=%v: halted=%v pc=%#x, want halted at %#x", warm, th.Halted(), th.PC(), ref.PC())
		}
		for r := isa.Reg(0); r < isa.NumRegs; r++ {
			if th.Reg(r) != ref.Reg(r) {
				t.Errorf("warm=%v: r%d = %#x, step %#x", warm, r, th.Reg(r), ref.Reg(r))
			}
		}
		for _, addr := range []uint64{pfAddr, ldnfAddr} {
			if got := h.ContainsL1(addr); got != warm {
				t.Errorf("warm=%v: line of %#x in L1 = %v, want %v", warm, addr, got, warm)
			}
		}
	}
}
