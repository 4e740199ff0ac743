package core

import (
	"testing"

	"tridentsp/internal/isa"
	"tridentsp/internal/program"
)

// strideWorkload builds an outer-repeated strided-sum loop over a large
// array: the canonical delinquent stride load.
//
//	outer: ldi r1,arr ; ldi r4,n
//	top:   ld r2,0(r1) ; add r3,r3,r2 ; <pad ALU> ; addi r1,r1,stride ;
//	       subi r4,r4,1 ; bne r4,top
//	       subi r6,r6,1 ; bne r6,outer ; halt
func strideWorkload(n int, stride int64, pad int) *program.Program {
	b := program.NewBuilder("stride-sum", 0x1000, 0x1000000)
	arr := b.Alloc(uint64(n) * uint64(stride))
	b.Ldi(6, 1<<40) // effectively endless outer loop; Run's limit stops it
	b.Label("outer")
	b.Ldi(1, arr)
	b.Ldi(4, uint64(n))
	b.Label("top")
	b.Ld(2, 1, 0)
	b.Op(isa.ADD, 3, 3, 2)
	for i := 0; i < pad; i++ {
		b.OpI(isa.ADDI, 5, 5, 1)
	}
	b.OpI(isa.ADDI, 1, 1, stride)
	b.OpI(isa.SUBI, 4, 4, 1)
	b.CondBr(isa.BNE, 4, "top")
	b.OpI(isa.SUBI, 6, 6, 1)
	b.CondBr(isa.BNE, 6, "outer")
	b.Halt()
	p := b.MustBuild()
	for i := 0; i < n; i++ {
		p.SetWord(arr+uint64(int64(i)*stride), uint64(i+1))
	}
	return p
}

// pointerWorkload builds a pointer chase over arena-allocated nodes (so the
// hardware sees stride-predictable pointer values, the paper's key case).
func pointerWorkload(nodes int, nodeSize int64) *program.Program {
	b := program.NewBuilder("chase", 0x1000, 0x1000000)
	arena := b.Alloc(uint64(nodes) * uint64(nodeSize))
	// node[i].next = &node[i+1]; last points back to first.
	for i := 0; i < nodes; i++ {
		next := arena + uint64((int64(i)+1)*nodeSize)
		if i == nodes-1 {
			next = arena
		}
		b.SetWord(arena+uint64(int64(i)*nodeSize), next)
		b.SetWord(arena+uint64(int64(i)*nodeSize)+8, uint64(i))
	}
	b.Ldi(6, 1<<40)
	b.Label("outer")
	b.Ldi(1, arena)
	b.Ldi(4, uint64(nodes))
	b.Label("top")
	b.Ld(2, 1, 8) // payload
	b.Op(isa.ADD, 3, 3, 2)
	b.Ld(1, 1, 0) // p = p->next
	b.OpI(isa.SUBI, 4, 4, 1)
	b.CondBr(isa.BNE, 4, "top")
	b.OpI(isa.SUBI, 6, 6, 1)
	b.CondBr(isa.BNE, 6, "outer")
	b.Halt()
	return b.MustBuild()
}

func TestBaselineRunsToLimit(t *testing.T) {
	p := strideWorkload(4096, 64, 2)
	sys := NewSystem(BaselineConfig(HWNone), p)
	res := sys.Run(200_000)
	if res.OrigInstrs < 200_000 {
		t.Fatalf("orig instrs = %d", res.OrigInstrs)
	}
	if res.Cycles <= 0 || res.IPC() <= 0 {
		t.Fatalf("degenerate results: %+v", res)
	}
	if res.TracesFormed != 0 || res.Repairs != 0 {
		t.Fatal("baseline ran Trident")
	}
}

func TestHWPrefetchingSpeedsUpStrideLoop(t *testing.T) {
	p := strideWorkload(16384, 64, 2) // 1 MB array: misses to L3/memory
	none := NewSystem(BaselineConfig(HWNone), p).Run(400_000)
	hw := NewSystem(BaselineConfig(HW8x8), p).Run(400_000)
	sp := Speedup(hw, none)
	if sp < 1.2 {
		t.Fatalf("8x8 stream buffers speedup = %.3f, want > 1.2", sp)
	}
}

func TestTraceFormationAndLinking(t *testing.T) {
	p := strideWorkload(4096, 64, 2)
	cfg := DefaultConfig()
	cfg.HW = HWNone
	sys := NewSystem(cfg, p)
	res := sys.Run(300_000)
	if res.TracesFormed == 0 {
		t.Fatal("no hot traces formed")
	}
	if res.LiveTraces == 0 {
		t.Fatal("no live traces")
	}
	if res.CodeCacheBytes == 0 {
		t.Fatal("code cache empty")
	}
}

func TestSelfRepairingPrefetchSpeedsUpStrideLoop(t *testing.T) {
	// ~1.5MB working set, 10-instruction body. The self-repairing
	// prefetcher must clearly beat the no-Trident machine (both without
	// hardware prefetching, isolating the software effect).
	p := strideWorkload(131072, 64, 4) // 8 MB: beyond L3, steady-state memory misses
	base := NewSystem(BaselineConfig(HWNone), p).Run(3_000_000)
	cfg := DefaultConfig()
	cfg.HW = HWNone
	opt := NewSystem(cfg, p).Run(3_000_000)
	sp := Speedup(opt, base)
	if sp < 1.3 {
		t.Fatalf("self-repair speedup = %.3f (base IPC %.4f, opt IPC %.4f), want > 1.3",
			sp, base.IPC(), opt.IPC())
	}
	if opt.Insertions == 0 {
		t.Fatal("no prefetch insertions happened")
	}
	if opt.Repairs == 0 {
		t.Fatal("no repairs happened")
	}
	if opt.Mem.PrefetchesIssued == 0 {
		t.Fatal("no software prefetches executed")
	}
}

func TestSelfRepairingPrefetchSpeedsUpPointerChase(t *testing.T) {
	// Arena-allocated chase: stride-predictable pointers, invisible to a
	// static analyzer but caught by the DLT stride predictor.
	p := pointerWorkload(65536, 192) // 12.5 MB of nodes: beyond L3
	base := NewSystem(BaselineConfig(HWNone), p).Run(2_000_000)
	cfg := DefaultConfig()
	cfg.HW = HWNone
	opt := NewSystem(cfg, p).Run(2_000_000)
	sp := Speedup(opt, base)
	if sp < 1.2 {
		t.Fatalf("pointer-chase speedup = %.3f, want > 1.2", sp)
	}
}

func TestArchitecturalTransparency(t *testing.T) {
	// The load-bearing invariant: Trident with self-repairing prefetching
	// must not change the program's architectural results. Both runs halt
	// naturally (finite outer loop) and must agree on the computed sum.
	build := func() *program.Program {
		b := program.NewBuilder("sum", 0x1000, 0x1000000)
		arr := b.Alloc(2048 * 64)
		b.Ldi(6, 40) // finite outer loop
		b.Label("outer")
		b.Ldi(1, arr)
		b.Ldi(4, 2048)
		b.Label("top")
		b.Ld(2, 1, 0)
		b.Op(isa.ADD, 3, 3, 2)
		b.OpI(isa.ADDI, 1, 1, 64)
		b.OpI(isa.SUBI, 4, 4, 1)
		b.CondBr(isa.BNE, 4, "top")
		b.St(3, 1, 0) // store running sum past the array
		b.OpI(isa.SUBI, 6, 6, 1)
		b.CondBr(isa.BNE, 6, "outer")
		b.Halt()
		p := b.MustBuild()
		for i := 0; i < 2048; i++ {
			p.SetWord(arr+uint64(i*64), uint64(i)*2718281+7)
		}
		return p
	}

	run := func(cfg Config) (uint64, []program.WordValue) {
		p := build()
		sys := NewSystem(cfg, p)
		sys.Run(1 << 62) // run to halt
		if !sys.Thread().Halted() {
			t.Fatal("program did not halt")
		}
		return sys.Thread().Reg(3), sys.mem.Snapshot()
	}

	wantSum, wantMem := run(BaselineConfig(HWNone))
	for _, cfg := range []Config{
		BaselineConfig(HW8x8),
		func() Config { c := DefaultConfig(); c.SW = SWBasic; return c }(),
		func() Config { c := DefaultConfig(); c.SW = SWWholeObject; return c }(),
		DefaultConfig(),
		func() Config { c := DefaultConfig(); c.HW = HWNone; return c }(),
	} {
		sum, mem := run(cfg)
		if sum != wantSum {
			t.Fatalf("config %s/%s: sum %d != baseline %d", cfg.HW, cfg.SW, sum, wantSum)
		}
		if len(mem) != len(wantMem) {
			t.Fatalf("config %s/%s: memory footprint differs", cfg.HW, cfg.SW)
		}
		for i := range mem {
			if mem[i] != wantMem[i] {
				t.Fatalf("config %s/%s: memory differs at %#x", cfg.HW, cfg.SW, mem[i].Addr)
			}
		}
	}
}

func TestOrigInstrsAccountingMatchesUnoptimizedRun(t *testing.T) {
	// Running to natural halt, the original-instruction count must be
	// identical with and without Trident (weights conserve the original
	// program's instruction stream).
	build := func() *program.Program { return strideFinite(64, 2048) }
	base := NewSystem(BaselineConfig(HWNone), build())
	baseRes := base.Run(1 << 62)
	opt := NewSystem(DefaultConfig(), build())
	optRes := opt.Run(1 << 62)
	if !base.Thread().Halted() || !opt.Thread().Halted() {
		t.Fatal("programs did not halt")
	}
	if baseRes.OrigInstrs != optRes.OrigInstrs {
		t.Fatalf("orig instr accounting: base %d, optimized %d",
			baseRes.OrigInstrs, optRes.OrigInstrs)
	}
	// The optimized run commits extra (inserted) instructions.
	if optRes.TracesFormed > 0 && optRes.Committed <= optRes.OrigInstrs {
		t.Log("note: no inserted instructions committed (acceptable if no insertion happened)")
	}
}

// strideFinite is a finite variant of strideWorkload.
func strideFinite(outer, n int) *program.Program {
	b := program.NewBuilder("finite", 0x1000, 0x1000000)
	arr := b.Alloc(uint64(n) * 64)
	b.Ldi(6, uint64(outer))
	b.Label("outer")
	b.Ldi(1, arr)
	b.Ldi(4, uint64(n))
	b.Label("top")
	b.Ld(2, 1, 0)
	b.Op(isa.ADD, 3, 3, 2)
	b.OpI(isa.ADDI, 1, 1, 64)
	b.OpI(isa.SUBI, 4, 4, 1)
	b.CondBr(isa.BNE, 4, "top")
	b.OpI(isa.SUBI, 6, 6, 1)
	b.CondBr(isa.BNE, 6, "outer")
	b.Halt()
	return b.MustBuild()
}

func TestOverheadModeNeverLinksTraces(t *testing.T) {
	p := strideWorkload(8192, 64, 2)
	cfg := DefaultConfig()
	cfg.LinkTraces = false
	sys := NewSystem(cfg, p)
	res := sys.Run(500_000)
	if res.TracesFormed == 0 {
		t.Fatal("overhead mode formed no traces")
	}
	// Execution never enters the code cache, so no load is ever "in a
	// trace" and no delinquent events fire — only formation work.
	if res.Mem.Loads == 0 {
		t.Fatal("no loads")
	}
	if res.MissesInTrace != 0 {
		t.Fatal("link-disabled run monitored in-trace loads")
	}
	if res.Mem.PrefetchesIssued != 0 {
		t.Fatal("link-disabled run executed prefetches")
	}
	// And the main thread must still be producing baseline-like IPC: the
	// only cost is interference. Compare with a plain baseline.
	base := NewSystem(BaselineConfig(HW8x8), strideWorkload(8192, 64, 2)).Run(500_000)
	slowdown := base.IPC() / res.IPC()
	if slowdown > 1.05 {
		t.Fatalf("overhead-mode slowdown = %.3f, want ~1.00x (<= 1.05)", slowdown)
	}
}

func TestHelperActivityFractionSmall(t *testing.T) {
	p := strideWorkload(16384, 64, 2)
	sys := NewSystem(DefaultConfig(), p)
	res := sys.Run(1_000_000)
	frac := res.HelperActiveFraction()
	if frac <= 0 {
		t.Fatal("helper never active")
	}
	if frac > 0.25 {
		t.Fatalf("helper active fraction = %.3f, implausibly high", frac)
	}
}

func TestPrefetchDistanceConverges(t *testing.T) {
	p := strideWorkload(131072, 64, 4)
	cfg := DefaultConfig()
	cfg.HW = HWNone
	sys := NewSystem(cfg, p)
	sys.Run(3_000_000)
	// The load at top (ld r2,0(r1)): its original PC is entry of the
	// hot loop. Find it via the optimizer's distance query across the
	// plausible heads.
	var best int64
	for pc := p.Base; pc < p.CodeEnd(); pc += isa.WordSize {
		for lpc := p.Base; lpc < p.CodeEnd(); lpc += isa.WordSize {
			if d := sys.Optimizer().Distance(pc, lpc); d > best {
				best = d
			}
		}
	}
	if best < 2 {
		t.Fatalf("prefetch distance never adapted beyond %d", best)
	}
}

func TestFigure6BreakdownSums(t *testing.T) {
	p := strideWorkload(16384, 64, 2)
	sys := NewSystem(DefaultConfig(), p)
	res := sys.Run(500_000)
	var sum uint64
	for _, c := range res.Mem.ByOutcome {
		sum += c
	}
	if sum != res.Mem.Loads {
		t.Fatalf("outcome sum %d != loads %d", sum, res.Mem.Loads)
	}
}

func TestEventQueueDropsAreBounded(t *testing.T) {
	p := strideWorkload(16384, 64, 2)
	sys := NewSystem(DefaultConfig(), p)
	res := sys.Run(500_000)
	if res.EventsRaised == 0 {
		t.Fatal("no events raised")
	}
	if res.EventsDropped > res.EventsRaised/2 {
		t.Fatalf("excessive event drops: %d of %d", res.EventsDropped, res.EventsRaised)
	}
}
