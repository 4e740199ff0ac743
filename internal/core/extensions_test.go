package core

import (
	"testing"

	"tridentsp/internal/isa"
	"tridentsp/internal/program"
)

// flipWorkload builds a loop whose data-dependent branch takes one
// direction during trace formation and the opposite direction afterwards,
// so the formed trace side-exits on almost every entry — the case the
// back-out policy exists for.
func flipWorkload() *program.Program {
	b := program.NewBuilder("flip", 0x1000, 0x1000000)
	flag := b.AllocWords(1) // 1 during warmup, 0 afterwards
	arr := b.Alloc(1 << 20)

	b.Ldi(6, 1<<40)
	b.Ldi(9, flag)
	b.Label("outer")
	b.Ldi(1, arr)
	b.Ldi(4, 4096)
	b.Label("top")
	b.Ld(2, 9, 0) // the flip flag
	b.CondBr(isa.BEQ, 2, "cold")
	// Warmup path: captured into the trace.
	b.OpI(isa.ADDI, 5, 5, 1)
	b.OpI(isa.ADDI, 5, 5, 1)
	b.Br("join")
	b.Label("cold")
	// Post-flip path: the trace's side exit.
	b.OpI(isa.ADDI, 7, 7, 1)
	b.OpI(isa.ADDI, 7, 7, 1)
	b.Label("join")
	b.Ld(3, 1, 0)
	b.OpI(isa.ADDI, 1, 1, 64)
	// Flip the flag off after ~6000 iterations.
	b.OpI(isa.SUBI, 8, 8, 1)
	b.CondBr(isa.BNE, 8, "noflip")
	b.St(isa.ZeroReg, 9, 0)
	b.Label("noflip")
	b.OpI(isa.SUBI, 4, 4, 1)
	b.CondBr(isa.BNE, 4, "top")
	b.OpI(isa.SUBI, 6, 6, 1)
	b.CondBr(isa.BNE, 6, "outer")
	b.Halt()
	p := b.MustBuild()
	p.SetWord(flag, 1)
	return p
}

func TestBackoutUnlinksUnrepresentativeTrace(t *testing.T) {
	p := flipWorkload()
	cfg := DefaultConfig()
	cfg.HW = HWNone
	cfg.Backout = true
	sys := NewSystem(cfg, p)
	sys.Thread().SetReg(8, 6000) // flip countdown
	res := sys.Run(2_000_000)
	if res.TracesFormed == 0 {
		t.Fatal("no trace formed")
	}
	if res.TracesBackedOut == 0 {
		t.Fatal("unrepresentative trace never backed out")
	}
	// After back-out the profiler re-arms, so the post-flip path can form
	// a fresh trace; either way the head must not point at a dead trace
	// lineage forever: re-formation count exceeds back-outs.
	if res.TracesFormed <= res.TracesBackedOut {
		t.Fatalf("formed %d, backed out %d: no recovery", res.TracesFormed, res.TracesBackedOut)
	}
}

func TestBackoutDisabledByDefault(t *testing.T) {
	p := flipWorkload()
	cfg := DefaultConfig()
	cfg.HW = HWNone
	sys := NewSystem(cfg, p)
	sys.Thread().SetReg(8, 6000)
	res := sys.Run(1_000_000)
	if res.TracesBackedOut != 0 {
		t.Fatal("back-out ran while disabled")
	}
}

func TestBackoutPreservesArchitecturalState(t *testing.T) {
	// The flip workload must compute identical results with and without
	// back-out.
	run := func(backout bool) (uint64, uint64) {
		p := flipWorkload()
		cfg := DefaultConfig()
		cfg.HW = HWNone
		cfg.Backout = backout
		sys := NewSystem(cfg, p)
		sys.Thread().SetReg(8, 3000)
		sys.Thread().SetReg(6, 0) // will be overwritten by program's Ldi
		sys.Run(1_200_000)
		return sys.Thread().Reg(5), sys.Thread().Reg(7)
	}
	w5, w7 := run(false)
	g5, g7 := run(true)
	// Runs stop at an instruction budget, so allow the tiny skew from
	// stopping at different loop positions; the counters must be within
	// one iteration's worth (2) of each other.
	if diff(w5, g5) > 8 || diff(w7, g7) > 8 {
		t.Fatalf("state diverged: r5 %d vs %d, r7 %d vs %d", w5, g5, w7, g7)
	}
}

func diff(a, b uint64) uint64 {
	if a > b {
		return a - b
	}
	return b - a
}

// phaseWorkload runs a low-miss phase, then switches to a high-miss phase
// over a second array.
func phaseWorkload() *program.Program {
	b := program.NewBuilder("phase", 0x1000, 0x1000000)
	small := b.Alloc(16 << 10)
	big := b.Alloc(16 << 20)
	b.Ldi(6, 1<<40)
	b.Label("outer")
	// Phase A: cache-resident.
	b.Ldi(1, small)
	b.Ldi(4, 60000)
	b.Label("pa")
	b.Ld(2, 1, 0)
	b.OpI(isa.ADDI, 1, 1, 8)
	b.OpI(isa.ANDI, 1, 1, (16<<10)-1)
	b.OpI(isa.ADDI, 1, 1, 0)
	b.Op(isa.ADD, 3, 3, 2)
	b.OpI(isa.SUBI, 4, 4, 1)
	b.CondBr(isa.BNE, 4, "pa")
	// Phase B: streaming misses.
	b.Ldi(1, big)
	b.Ldi(4, 60000)
	b.Label("pb")
	b.Ld(2, 1, 0)
	b.OpI(isa.ADDI, 1, 1, 64)
	b.Op(isa.ADD, 3, 3, 2)
	b.OpI(isa.SUBI, 4, 4, 1)
	b.CondBr(isa.BNE, 4, "pb")
	b.OpI(isa.SUBI, 6, 6, 1)
	b.CondBr(isa.BNE, 6, "outer")
	b.Halt()
	return b.MustBuild()
}

func TestPhaseDetectionClearsMature(t *testing.T) {
	p := phaseWorkload()
	cfg := DefaultConfig()
	cfg.HW = HWNone
	cfg.PhaseClearMature = true
	cfg.PhaseWindow = 150_000
	sys := NewSystem(cfg, p)
	res := sys.Run(2_500_000)
	if res.PhaseClears == 0 {
		t.Fatal("phase change never detected across resident/streaming phases")
	}
}

func TestPhaseDetectionOffByDefault(t *testing.T) {
	p := phaseWorkload()
	cfg := DefaultConfig()
	cfg.HW = HWNone
	res := NewSystem(cfg, p).Run(1_000_000)
	if res.PhaseClears != 0 {
		t.Fatal("phase detection ran while disabled")
	}
}

func TestInitFromEstimateConvergesLikeDefault(t *testing.T) {
	// The paper's §3.5.1 claim: starting from the estimate instead of 1
	// makes no difference because repair converges quickly. Both variants
	// must land within a few percent of each other.
	p := strideWorkload(131072, 64, 4)
	cfg := DefaultConfig()
	cfg.HW = HWNone
	d1 := NewSystem(cfg, p).Run(3_000_000)

	p = strideWorkload(131072, 64, 4)
	cfg.InitFromEstimate = true
	est := NewSystem(cfg, p).Run(3_000_000)

	ratio := est.IPC() / d1.IPC()
	if ratio < 0.9 || ratio > 1.1 {
		t.Fatalf("estimate-init IPC ratio %.3f, want ~1.0 (paper: no gain)", ratio)
	}
}
