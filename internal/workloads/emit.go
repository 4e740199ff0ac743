package workloads

import (
	"tridentsp/internal/isa"
	"tridentsp/internal/program"
)

// Shared kernel-emission helpers. Real SPEC iterations spend most of their
// instructions on cache-resident data and only a small fraction on the
// delinquent loads the paper targets; these helpers give every kernel that
// mix so baseline miss-bound fractions, Figure 6's hit-dominated breakdown,
// and prefetching gains land in the paper's regimes.

// Registers used by the resident-work helpers (see workloads.go for the
// kernel conventions).
const (
	rResBase = 24 // resident table base (constant)
	rResCur  = 25 // resident walk cursor
	rResMask = 26 // resident table size-1 (constant)
	rResVal  = 27
	rResTmp  = 28
)

// residentTableBytes is sized to sit in L1 alongside the streaming lines.
const residentTableBytes = 16 << 10

// setupResident allocates the resident table and initializes its registers;
// call once before the outer loop.
func setupResident(b *program.Builder) uint64 {
	tbl := b.Alloc(residentTableBytes)
	b.Ldi(rResBase, tbl)
	b.Ldi(rResMask, residentTableBytes-1)
	b.Ldi(rResCur, 0)
	return tbl
}

// residentLoads emits n loads from the resident table (4 instructions
// each), advancing the cursor so consecutive iterations touch fresh but
// cache-hot words.
func residentLoads(b *program.Builder, n int) {
	for i := 0; i < n; i++ {
		b.Op(isa.AND, rResTmp, rResCur, rResMask)
		b.Op(isa.ADD, rResTmp, rResBase, rResTmp)
		b.Ld(rResVal, rResTmp, 0)
		b.OpI(isa.ADDI, rResCur, rResCur, 8)
	}
}

// fpPad emits n floating-point pad instructions over the accumulators.
func fpPad(b *program.Builder, n int) {
	for i := 0; i < n; i++ {
		switch i % 3 {
		case 0:
			b.Op(isa.FMUL, rTmp, rAcc, rResVal)
		case 1:
			b.Op(isa.FADD, rAcc, rAcc, rTmp)
		default:
			b.Op(isa.FADD, rAcc2, rAcc2, rTmp)
		}
	}
}

// aluPad emits n integer pad instructions.
func aluPad(b *program.Builder, n int) {
	for i := 0; i < n; i++ {
		switch i % 3 {
		case 0:
			b.Op(isa.XOR, rTmp, rAcc, rResVal)
		case 1:
			b.OpI(isa.ADDI, rAcc, rAcc, 3)
		default:
			b.Op(isa.ADD, rAcc2, rAcc2, rTmp)
		}
	}
}

// seedEvery initializes every strideth word of [base, base+size) with
// pseudo-random data.
func seedEvery(p *program.Program, base, size, stride uint64) {
	r := newRand(base ^ size ^ 0x5eed)
	for off := uint64(0); off < size; off += stride {
		p.SetWord(base+off, r.next())
	}
}
