package core

import (
	"bytes"
	"testing"

	"tridentsp/internal/isa"
	"tridentsp/internal/program"
	"tridentsp/internal/trident"
)

// FuzzFastPathDifferential extends the repo's fuzz infrastructure (see
// internal/asm.FuzzAssemble) to the compiled fast path: arbitrary bytes
// become a structured hot loop mixing ALU ops, loads, non-faulting loads,
// stores, prefetches, FDIVs, and data-dependent forward branches, and the
// program runs as a two-way oracle — slow path (reference) against the
// fast path, where every superblock runs as a compiled chain from its first
// launch. Any divergence in Results, final PC, the register file, or the
// memory-system statistics fails. The loop is hot by construction, so
// Trident forms traces over fuzz-chosen bodies and both engines execute them
// — covering member classifications (and slow-path exclusions like FDIV) the
// hand-written differential matrix cannot enumerate. Midway through, a
// PatchImm is applied identically to both systems at an immediate-carrying
// instruction of a live trace: on the fast system the compiled chain
// starting there is resident at that point, so the patch must retire it —
// observed directly via CompiledAt — and the remainder of the run proves the
// rewritten word, not the stale chain, is what executes.
func FuzzFastPathDifferential(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x66, 0x99, 0xb3})                        // load/store/prefetch
	f.Add([]byte{0xc4, 0xd5, 0xe6, 0xf7})                  // fdiv + branches
	f.Add(bytes.Repeat([]byte{0x67}, 24))                  // load-dense body
	f.Add(bytes.Repeat([]byte{0x9a, 0x08, 0xd1, 0x3f}, 8)) // store/ldnf/branch mix
	seq := make([]byte, 64)
	for i := range seq {
		seq[i] = byte(i * 37)
	}
	f.Add(seq)

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 192 {
			data = data[:192]
		}
		slow := DefaultConfig()
		slow.DisableFastPath = true
		sysF := NewSystem(DefaultConfig(), buildFuzzProgram(data))
		sysS := NewSystem(slow, buildFuzzProgram(data))
		systems := []*System{sysS, sysF}

		// First half: let Trident form traces and the fast path compile them.
		for _, sys := range systems {
			sys.Run(15_000)
		}

		// Mid-run PatchImm, applied identically everywhere. The systems are
		// bit-identical by construction, so a patch target picked off the
		// fast system's code cache exists with the same content in both.
		if pc, imm := fuzzPatchTarget(sysF); pc != 0 {
			stale := sysF.cache.CompiledAt(pc)
			for _, sys := range systems {
				if err := sys.cache.PatchImm(pc, imm); err != nil {
					t.Fatalf("PatchImm(%#x, %d): %v", pc, imm, err)
				}
			}
			if stale != nil && sysF.cache.CompiledAt(pc) == stale {
				t.Fatalf("compiled chain at %#x survived PatchImm", pc)
			}
		}

		resS := sysS.Run(30_000)
		resF := sysF.Run(30_000)
		if resF != resS {
			t.Fatalf("Results diverged\nfast: %+v\nslow: %+v", resF, resS)
		}
		if pcF, pcS := sysF.Thread().PC(), sysS.Thread().PC(); pcF != pcS {
			t.Fatalf("final PC diverged: fast %#x, slow %#x", pcF, pcS)
		}
		for r := isa.Reg(0); r < isa.NumRegs; r++ {
			if vF, vS := sysF.Thread().Reg(r), sysS.Thread().Reg(r); vF != vS {
				t.Fatalf("r%d diverged: fast %#x, slow %#x", r, vF, vS)
			}
		}
		if sysF.hier.Stats != sysS.hier.Stats {
			t.Fatalf("memsys.Stats diverged\nfast: %+v\nslow: %+v",
				sysF.hier.Stats, sysS.hier.Stats)
		}
	})
}

// fuzzPatchTarget picks a deterministic PatchImm target in sys's code cache:
// the first immediate-carrying, non-control instruction of the lowest live
// placement. Branch immediates are excluded (rewriting a displacement can
// jump outside placed code), and the new immediate nudges the old one by one
// word so address-forming offsets stay aligned and in range. Returns pc 0
// when no live trace offers a target (the fuzz mapping is total; a body of
// pure branches may place nothing patchable).
func fuzzPatchTarget(sys *System) (pc uint64, imm int64) {
	sys.cache.VisitPlacements(func(pl *trident.Placement) {
		if pc != 0 || !pl.Live {
			return
		}
		for i := range pl.Trace.Insts {
			in := pl.Trace.Insts[i].Inst
			switch in.Op {
			case isa.LD, isa.LDNF, isa.ST, isa.PREFETCH, isa.ADDI, isa.SUBI,
				isa.XORI, isa.ANDI, isa.ORI, isa.LDI:
				p := pl.Start + uint64(i)*isa.WordSize
				next := in.Imm + 8
				if next > isa.ImmMax {
					next = in.Imm - 8
				}
				pc, imm = p, next
				return
			}
		}
	})
	return pc, imm
}

// buildFuzzProgram turns fuzz bytes into a runnable hot loop. The mapping is
// total (every byte string yields a valid program) and deterministic, with
// the loop bookkeeping kept in registers the fuzz body never writes.
func buildFuzzProgram(data []byte) *program.Program {
	b := program.NewBuilder("fuzz", 0x1000, 1<<20)
	arr := b.Alloc(32 << 10)
	// Seed every third line's first word: loads see a mix of mapped and
	// unmapped words, so LDNF's valid-word semantics are exercised too.
	for i := uint64(0); i < 512; i += 3 {
		b.SetWord(arr+i*64, i*0x9e3779b97f4a7c15+1)
	}

	const (
		rPtr  = 1  // arr + index, recomputed each iteration
		rCnt  = 4  // outer counter
		rIdx  = 17 // masked walking index
		rMask = 20
		rArr  = 24
	)
	body := func(i int) isa.Reg { return isa.Reg(5 + i&7) } // r5..r12

	b.Ldi(rArr, arr)
	b.Ldi(rMask, (16<<10)-8)
	b.Ldi(rIdx, 0)
	b.Ldi(rCnt, 1<<40) // effectively endless; the run limit stops execution
	b.Label("loop")
	b.Op(isa.ADD, rPtr, rArr, rIdx)

	skips := 0
	for i, v := range data {
		rd := body(int(v >> 4))
		ra := body(int(v >> 2))
		rb := body(int(v))
		off := int64(v>>2) * 8 % 2048
		switch v & 15 {
		case 0, 1:
			b.Op(isa.ADD, rd, ra, rb)
		case 2:
			b.Op(isa.SUB, rd, ra, rb)
		case 3:
			b.Op(isa.XOR, rd, ra, rb)
		case 4:
			b.Op(isa.MUL, rd, ra, rb)
		case 5:
			b.OpI(isa.ADDI, rd, ra, int64(v>>4))
		case 6, 7:
			b.Ld(rd, rPtr, off)
		case 8:
			b.Emit(isa.Inst{Op: isa.LDNF, Rd: rd, Ra: rPtr, Imm: off})
		case 9, 10:
			b.St(rb, rPtr, off)
		case 11:
			b.Emit(isa.Inst{Op: isa.PREFETCH, Ra: rPtr, Imm: off * 4})
		case 12:
			b.Op(isa.FDIV, rd, ra, rb)
		case 13, 14:
			// Data-dependent forward skip over one instruction: the branch
			// direction varies run-time state, so the profiler's bitmaps and
			// the batcher's fold handling both see fuzz-chosen shapes.
			op := isa.BEQ
			if v&1 == 0 {
				op = isa.BNE
			}
			label := "s" + string(rune('a'+skips%26)) + string(rune('a'+skips/26))
			skips++
			b.CondBr(op, ra, label)
			b.OpI(isa.ADDI, rd, rd, int64(i)+1)
			b.Label(label)
		default:
			b.Op(isa.AND, rd, ra, rb)
		}
	}

	b.OpI(isa.ADDI, rIdx, rIdx, 40)
	b.Op(isa.AND, rIdx, rIdx, rMask)
	b.OpI(isa.SUBI, rCnt, rCnt, 1)
	b.CondBr(isa.BNE, rCnt, "loop")
	b.Halt()
	return b.MustBuild()
}
