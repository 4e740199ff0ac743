package trident

import (
	"testing"

	"tridentsp/internal/cpu"
	"tridentsp/internal/isa"
	"tridentsp/internal/trace"
)

// straightTrace builds a trace whose body is a run of block-eligible ALU ops
// (with an inserted, weight-0 prefetch-setup LDA in the middle) ending in an
// exit jump, mirroring the shape the optimizer emits.
func straightTrace() *trace.Trace {
	return &trace.Trace{StartPC: 0x1000, Insts: []trace.Inst{
		{Inst: isa.Inst{Op: isa.ADDI, Rd: 1, Ra: 1, Imm: 8}, Kind: trace.Normal, Weight: 1},
		{Inst: isa.Inst{Op: isa.LDA, Rd: 30, Ra: 1, Imm: 64}, Kind: trace.Normal, Inserted: true},
		{Inst: isa.Inst{Op: isa.SUBI, Rd: 4, Ra: 4, Imm: 1}, Kind: trace.Normal, Weight: 2},
		{Inst: isa.Inst{Op: isa.PREFETCH, Ra: 30, Imm: 128}, Kind: trace.Normal, Inserted: true},
		{Inst: isa.Inst{Op: isa.BR, Rd: isa.ZeroReg}, Kind: trace.ExitJump, ExitTarget: 0x1000},
	}}
}

// placedBlock reads n placed instructions and their weights back through
// the code cache's fetch path, for comparison against a compiled chain.
func placedBlock(cc *CodeCache, start uint64, n int) cpu.Block {
	b := cpu.Block{Insts: make([]isa.Inst, n), Weights: make([]int, n)}
	for i := range b.Insts {
		pc := start + uint64(i)*isa.WordSize
		b.Insts[i], _ = cc.Fetch(pc)
		b.Weights[i] = cc.Weight(pc)
	}
	return b
}

func TestCodeCacheBlockAt(t *testing.T) {
	cc := NewCodeCache(0x10000000)
	pl, err := cc.Place(straightTrace())
	if err != nil {
		t.Fatal(err)
	}
	// The chain at the trace start covers the four member instructions
	// (PREFETCH batches since the superblock engine) and stops before the
	// exit jump; its weights must match Weight(): 1 + 0 + 2 + 0.
	cb := cc.CompiledAt(pl.Start)
	if cb == nil {
		t.Fatal("no chain at trace start")
	}
	if cb.Len() != 4 {
		t.Fatalf("chain length %d, want 4 (stop before the exit jump)", cb.Len())
	}
	src := placedBlock(cc, pl.Start, cb.Len())
	if !cb.Matches(src) || src.Weights[2] != 2 {
		t.Fatalf("code-cache chain must carry the trace weights %v", src.Weights)
	}
	// The PREFETCH heads its own (one-instruction) chain; the exit jump
	// must not head one.
	if cb := cc.CompiledAt(pl.Start + 3*isa.WordSize); cb == nil || cb.Len() != 1 {
		t.Fatalf("PREFETCH chain: %v, want a 1-instruction chain", cb)
	}
	if cc.CompiledAt(pl.End-isa.WordSize) != nil {
		t.Fatal("exit jump must not head a chain")
	}
}

// TestCodeCacheBlockPatchImm is the self-repair interaction: a
// prefetch-distance rewrite (PatchImm) must retire the compiled chain so the
// next fetch through the block path runs the rewritten word.
func TestCodeCacheBlockPatchImm(t *testing.T) {
	cc := NewCodeCache(0x10000000)
	pl, err := cc.Place(straightTrace())
	if err != nil {
		t.Fatal(err)
	}
	// Compile the chain first so staleness is actually possible.
	stale := cc.CompiledAt(pl.Start)
	if stale == nil {
		t.Fatal("no chain at trace start")
	}
	// Rewrite the ADDI stride at the block head (the same primitive repair
	// uses on PREFETCH distances; any word in the span must invalidate).
	if err := cc.PatchImm(pl.Start, 16); err != nil {
		t.Fatal(err)
	}
	cb := cc.CompiledAt(pl.Start)
	if cb == nil {
		t.Fatal("no chain after PatchImm")
	}
	if cb == stale {
		t.Fatal("stale chain served after PatchImm")
	}
	if in, _ := cc.Fetch(pl.Start); in.Imm != 16 {
		t.Fatalf("PatchImm not applied: imm = %d, want 16", in.Imm)
	}
}

// TestCodeCacheBlockSurvivesPlace guards the append-reallocation hazard:
// placing a second trace may reallocate the decoded image, so chains handed
// out afterwards must be derived from the new backing arrays.
func TestCodeCacheBlockSurvivesPlace(t *testing.T) {
	cc := NewCodeCache(0x10000000)
	p1, err := cc.Place(straightTrace())
	if err != nil {
		t.Fatal(err)
	}
	if cc.CompiledAt(p1.Start) == nil {
		t.Fatal("no chain in first trace")
	}
	p2, err := cc.Place(straightTrace())
	if err != nil {
		t.Fatal(err)
	}
	for _, start := range []uint64{p1.Start, p2.Start} {
		cb := cc.CompiledAt(start)
		if cb == nil || cb.Len() != 4 || cb.Entry() != start {
			t.Fatalf("chain at %#x after second Place: %v", start, cb)
		}
		if !cb.Matches(placedBlock(cc, start, 4)) {
			t.Fatalf("chain at %#x was compiled from a stale image", start)
		}
	}
}
