package core

import (
	"testing"

	"tridentsp/internal/isa"
	"tridentsp/internal/memsys"
	"tridentsp/internal/trace"
	"tridentsp/internal/trident"
	"tridentsp/internal/workloads"
)

// TestFastPathDLTSampleSequence runs a miss-heavy workload on both paths and
// requires the delinquent load table to end in the same state entry by
// entry. The DLT digests the exact sample sequence it was fed — window
// counters, accumulated miss latency, stride-predictor state, and the event
// count — so any fast-path reordering, duplication, or loss of a single
// in-trace load sample diverges some field. The run is windowed so every
// resume crosses a batch boundary: L1 misses mid-superblock stop the batch
// at the missing load (pinned instruction-exactly by the cpu-level
// executor tests) and the load retires through step(), which must feed the
// table the very same (addr, miss, latency) sample.
func TestFastPathDLTSampleSequence(t *testing.T) {
	bm, ok := workloads.ByName("mcf")
	if !ok {
		t.Fatal("unknown benchmark mcf")
	}
	progF := bm.Build(workloads.ScaleSmall)
	progS := bm.Build(workloads.ScaleSmall)
	fast := DefaultConfig()
	slow := DefaultConfig()
	slow.DisableFastPath = true
	sysF := NewSystem(fast, progF)
	sysS := NewSystem(slow, progS)
	for target := uint64(50_000); target <= 250_000; target += 50_000 {
		sysF.Run(target)
		sysS.Run(target)
	}

	tF, tS := sysF.table, sysS.table
	// Non-vacuity: the run must actually have exercised the machinery under
	// test — monitored in-trace loads, L1 misses (each one a mid-batch stop
	// on the fast path), and at least one delinquent event.
	if sysF.stats.loadsInTrace == 0 {
		t.Fatal("no in-trace loads monitored; DLT comparison is vacuous")
	}
	if sysF.hier.Stats.ByOutcome[memsys.Miss] == 0 {
		t.Fatal("no L1 misses; no batch ever stopped mid-superblock")
	}
	if tF.Events == 0 {
		t.Fatal("no delinquent events; window thresholds never crossed")
	}

	if tF.Events != tS.Events || tF.Evictions != tS.Evictions || tF.Len() != tS.Len() {
		t.Fatalf("table shape diverged: events %d/%d, evictions %d/%d, len %d/%d",
			tF.Events, tS.Events, tF.Evictions, tS.Evictions, tF.Len(), tS.Len())
	}
	for pc := progF.Base; pc < progF.CodeEnd(); pc += isa.WordSize {
		eF, okF := tF.Lookup(pc)
		eS, okS := tS.Lookup(pc)
		if okF != okS {
			t.Errorf("pc %#x: tracked fast=%v slow=%v", pc, okF, okS)
			continue
		}
		if !okF {
			continue
		}
		if eF.Access != eS.Access || eF.Miss != eS.Miss || eF.MissLatency != eS.MissLatency {
			t.Errorf("pc %#x: window counters diverged: fast {%d %d %d}, slow {%d %d %d}",
				pc, eF.Access, eF.Miss, eF.MissLatency, eS.Access, eS.Miss, eS.MissLatency)
		}
		if eF.LastAddr != eS.LastAddr || eF.Stride != eS.Stride || eF.Confidence != eS.Confidence {
			t.Errorf("pc %#x: stride predictor diverged: fast {%#x %d %d}, slow {%#x %d %d}",
				pc, eF.LastAddr, eF.Stride, eF.Confidence, eS.LastAddr, eS.Stride, eS.Confidence)
		}
		if eF.Mature != eS.Mature {
			t.Errorf("pc %#x: mature flag diverged: fast %v, slow %v", pc, eF.Mature, eS.Mature)
		}
	}
}

// TestFastPathPatchImmHotLoop is the self-repair interaction with batching:
// a prefetch-distance rewrite (PatchImm) landing in a hot loop that the
// fast path is batching must take effect on the very next iteration. The
// code cache invalidates compiled chains on patch; a stale chain would keep
// issuing prefetches at the old distance forever.
func TestFastPathPatchImmHotLoop(t *testing.T) {
	bm, ok := workloads.ByName("swim")
	if !ok {
		t.Fatal("unknown benchmark swim")
	}
	cfg := DefaultConfig()
	sys := NewSystem(cfg, bm.Build(workloads.ScaleSmall))

	// Drive the optimizer until a live trace carries an inserted PREFETCH.
	var (
		pfPC  uint64
		limit uint64
	)
	for limit = 50_000; limit <= 600_000 && pfPC == 0; limit += 50_000 {
		sys.Run(limit)
		sys.cache.VisitPlacements(func(pl *trident.Placement) {
			if pfPC != 0 || !pl.Live {
				return
			}
			for i := range pl.Trace.Insts {
				ti := &pl.Trace.Insts[i]
				if ti.Inserted && ti.Inst.Op == isa.PREFETCH {
					pfPC = pl.Start + uint64(i)*isa.WordSize
					return
				}
			}
		})
	}
	if pfPC == 0 {
		t.Fatal("optimizer never placed a prefetch in a live trace")
	}

	// Rewrite the prefetch's offset to a distinctive far distance no other
	// access in the workload can reach, mimicking a repair event's patch.
	const farOff = 1 << 21
	oldImm, err := sys.cache.InstImm(pfPC)
	if err != nil {
		t.Fatal(err)
	}
	if oldImm == farOff {
		t.Fatalf("test offset collides with the optimizer's choice %d", oldImm)
	}
	stale := sys.cache.CompiledAt(pfPC)
	if err := sys.cache.PatchImm(pfPC, farOff); err != nil {
		t.Fatal(err)
	}
	// The execution-visible fetch path and the compiled chain must both
	// observe the rewritten word immediately.
	in, ok := sys.Fetch(pfPC)
	if !ok || in.Imm != farOff {
		t.Fatalf("Fetch after patch: ok=%v imm=%d, want %d", ok, in.Imm, farOff)
	}
	if cb := sys.cache.CompiledAt(pfPC); cb == nil || cb == stale {
		t.Fatalf("CompiledAt after patch: %p, stale chain %p", cb, stale)
	}

	// Run a few loop iterations at a time — batched by the compiled fast
	// path — and require the machine behaviour to show the new distance:
	// a line in the far region (prefetch base + farOff, which only the
	// patched word addresses) entering L1 via a prefetch fill. The probe
	// window trails the base register, which advances between the patched
	// word's execution and the window boundary.
	issued := sys.hier.Stats.PrefetchesIssued
	lineSz := uint64(sys.hier.Config().LineSize)
	found := false
	for w := 0; w < 40 && !found; w++ {
		limit += 100
		sys.Run(limit)
		base := sys.thread.Reg(in.Ra)
		for back := uint64(0); back <= 256 && !found; back++ {
			found = sys.hier.ContainsL1(base + farOff - back*lineSz)
		}
	}
	if sys.hier.Stats.PrefetchesIssued == issued {
		t.Fatal("patched prefetch never executed")
	}
	if !found {
		t.Fatalf("no L1 line near base%+d after patched iterations (base=%#x)",
			farOff, sys.thread.Reg(in.Ra))
	}
}

// TestFastPathTruncatesAtPlacementEnd covers the in-trace block that would
// run past its placement's end into an adjacently placed trace. Formed
// traces always end in a jump, so no workload reaches this path; the test
// places two straight-line traces back to back by hand, launches the fast
// path mid-way through the first, and requires the batch to retire exactly
// the first placement's remaining instructions — as a compiled prefix chain
// — and hand back at the second placement's entry.
func TestFastPathTruncatesAtPlacementEnd(t *testing.T) {
	sys := NewSystem(DefaultConfig(), buildFuzzProgram(nil))
	addi := func(r isa.Reg, imm int64, w int) trace.Inst {
		return trace.Inst{Inst: isa.Inst{Op: isa.ADDI, Rd: r, Ra: r, Imm: imm}, Kind: trace.Normal, Weight: w}
	}
	pl1, err := sys.cache.Place(&trace.Trace{StartPC: 0x1000, Insts: []trace.Inst{
		addi(5, 1, 1), addi(6, 2, 1), addi(7, 3, 2),
	}})
	if err != nil {
		t.Fatal(err)
	}
	pl2, err := sys.cache.Place(&trace.Trace{StartPC: 0x1000, Insts: []trace.Inst{
		addi(8, 4, 1),
		{Inst: isa.Inst{Op: isa.BR, Rd: isa.ZeroReg}, Kind: trace.ExitJump, ExitTarget: 0x1000},
	}})
	if err != nil {
		t.Fatal(err)
	}
	launch := pl1.Start + isa.WordSize
	if pl2.Start != pl1.End {
		t.Fatalf("placements not adjacent: %#x vs %#x", pl1.End, pl2.Start)
	}
	if cb := sys.cache.CompiledAt(launch); cb == nil || cb.Len() != 3 {
		t.Fatal("the block at the launch point must span both placements for this test")
	}

	th := sys.Thread()
	th.SetPC(launch)
	sys.curPl, sys.inTraversal = pl1, true
	r6, r7, r8 := th.Reg(6), th.Reg(7), th.Reg(8)
	sys.fastForward(1 << 20)

	if th.PC() != pl1.End {
		t.Fatalf("batch stopped at %#x, want the placement end %#x", th.PC(), pl1.End)
	}
	if th.Reg(6) != r6+2 || th.Reg(7) != r7+3 || th.Reg(8) != r8 {
		t.Fatalf("registers after truncated batch: r6 %+d r7 %+d r8 %+d, want +2 +3 +0",
			th.Reg(6)-r6, th.Reg(7)-r7, th.Reg(8)-r8)
	}
	if sys.origInstrs != 3 || sys.tiers[tierJIT].instrs != 3 {
		t.Fatalf("origInstrs %d, compiled-tier instrs %d; want the prefix's weight 3 retired compiled",
			sys.origInstrs, sys.tiers[tierJIT].instrs)
	}
}
