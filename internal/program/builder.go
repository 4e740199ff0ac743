package program

import (
	"fmt"

	"tridentsp/internal/isa"
)

// Builder constructs Programs programmatically. It provides labels with
// forward references, convenience emitters for common instruction forms, and
// a bump allocator for initialized data. The workload generators and the
// examples use it as the public construction API. Build seeds the words set
// here into the program's data image; generators that write bulk data after
// Build call the Program's SetWord directly.
type Builder struct {
	base    uint64
	name    string
	code    []isa.Inst
	labels  map[string]int // label -> instruction index
	fixups  map[int]string // instruction index -> label
	data    map[uint64]uint64
	dataPtr uint64
	errs    []error
}

// NewBuilder creates a builder. Code starts at base (8-byte aligned); data
// allocations start at dataBase.
func NewBuilder(name string, base, dataBase uint64) *Builder {
	return &Builder{
		base:    base &^ 7,
		name:    name,
		labels:  make(map[string]int),
		fixups:  make(map[int]string),
		data:    make(map[uint64]uint64),
		dataPtr: (dataBase + 7) &^ 7,
	}
}

// PC returns the address the next emitted instruction will occupy.
func (b *Builder) PC() uint64 {
	return b.base + uint64(len(b.code))*isa.WordSize
}

// Label defines name at the current PC.
func (b *Builder) Label(name string) {
	if _, dup := b.labels[name]; dup {
		b.errs = append(b.errs, fmt.Errorf("program: duplicate label %q", name))
		return
	}
	b.labels[name] = len(b.code)
}

// Emit appends a raw instruction.
func (b *Builder) Emit(in isa.Inst) {
	b.code = append(b.code, in)
}

// Op emits a register-register ALU or FP instruction rd <- ra op rb.
func (b *Builder) Op(op isa.Op, rd, ra, rb isa.Reg) {
	b.Emit(isa.Inst{Op: op, Rd: rd, Ra: ra, Rb: rb})
}

// OpI emits a register-immediate instruction rd <- ra op imm.
func (b *Builder) OpI(op isa.Op, rd, ra isa.Reg, imm int64) {
	b.Emit(isa.Inst{Op: op, Rd: rd, Ra: ra, Imm: imm})
}

// Ldi loads a 64-bit constant into rd, emitting one or two instructions
// depending on the magnitude.
func (b *Builder) Ldi(rd isa.Reg, v uint64) {
	s := int64(v)
	if s >= isa.ImmMin && s <= isa.ImmMax {
		b.Emit(isa.Inst{Op: isa.LDI, Rd: rd, Imm: s})
		return
	}
	// LDIH replaces the low 32 bits wholesale, so the high half loads
	// unmodified; v>>32 always fits the 33-bit LDI immediate.
	b.Emit(isa.Inst{Op: isa.LDI, Rd: rd, Imm: int64(v >> 32)})
	b.Emit(isa.Inst{Op: isa.LDIH, Rd: rd, Ra: rd, Imm: int64(int32(uint32(v)))})
}

// Ld emits rd <- mem[ra+off].
func (b *Builder) Ld(rd, ra isa.Reg, off int64) {
	b.Emit(isa.Inst{Op: isa.LD, Rd: rd, Ra: ra, Imm: off})
}

// St emits mem[ra+off] <- rb.
func (b *Builder) St(rb, ra isa.Reg, off int64) {
	b.Emit(isa.Inst{Op: isa.ST, Rb: rb, Ra: ra, Imm: off})
}

// Br emits an unconditional branch to label.
func (b *Builder) Br(label string) {
	b.fixups[len(b.code)] = label
	b.Emit(isa.Inst{Op: isa.BR, Rd: isa.ZeroReg})
}

// CondBr emits a conditional branch (BEQ/BNE/BLT/BGE on ra) to label.
func (b *Builder) CondBr(op isa.Op, ra isa.Reg, label string) {
	if !op.IsCondBranch() {
		b.errs = append(b.errs, fmt.Errorf("program: CondBr with non-branch op %v", op))
	}
	b.fixups[len(b.code)] = label
	b.Emit(isa.Inst{Op: op, Ra: ra})
}

// Halt emits a HALT.
func (b *Builder) Halt() { b.Emit(isa.Inst{Op: isa.HALT}) }

// Nop emits a NOP.
func (b *Builder) Nop() { b.Emit(isa.Inst{Op: isa.NOP}) }

// Alloc reserves n bytes of zeroed data, 8-byte aligned, returning its
// address.
func (b *Builder) Alloc(n uint64) uint64 {
	addr := b.dataPtr
	b.dataPtr += (n + 7) &^ 7
	return addr
}

// AllocWords reserves and initializes consecutive 8-byte words, returning
// the address of the first.
func (b *Builder) AllocWords(vals ...uint64) uint64 {
	addr := b.Alloc(uint64(len(vals)) * 8)
	for i, v := range vals {
		if v != 0 {
			b.data[addr+uint64(i)*8] = v
		}
	}
	return addr
}

// SetWord initializes one data word.
func (b *Builder) SetWord(addr, val uint64) {
	b.data[addr&^7] = val
}

// DataEnd returns the first address past all allocations.
func (b *Builder) DataEnd() uint64 { return b.dataPtr }

// Build resolves labels and encodes the program. Entry is the code base.
func (b *Builder) Build() (*Program, error) {
	if len(b.errs) > 0 {
		return nil, b.errs[0]
	}
	code := make([]uint64, len(b.code))
	for i, in := range b.code {
		if lbl, ok := b.fixups[i]; ok {
			ti, ok := b.labels[lbl]
			if !ok {
				return nil, fmt.Errorf("program: undefined label %q", lbl)
			}
			pc := b.base + uint64(i)*isa.WordSize
			target := b.base + uint64(ti)*isa.WordSize
			in.Imm = isa.BranchDisp(pc, target)
		}
		w, err := isa.EncodeChecked(in)
		if err != nil {
			return nil, fmt.Errorf("program: instruction %d: %w", i, err)
		}
		code[i] = w
	}
	p := &Program{Base: b.base, Code: code, Entry: b.base, Name: b.name}
	for a, v := range b.data {
		p.SetWord(a, v)
	}
	return p, nil
}

// MustBuild is Build that panics on error; intended for static workload
// definitions whose correctness is covered by tests.
func (b *Builder) MustBuild() *Program {
	p, err := b.Build()
	if err != nil {
		panic(err)
	}
	return p
}
