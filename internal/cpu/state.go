package cpu

import (
	"fmt"

	"tridentsp/internal/checkpoint"
	"tridentsp/internal/isa"
)

// Checkpoint serialization (DESIGN §12). State methods restore into an
// object freshly constructed from the same configuration and program: wiring
// (code space, memory, hierarchy, predictor) and derived constants
// (unitsPerCycle/unitsPerInst) come from construction, only mutable run
// state travels in the stream.

// SaveState serializes the thread's architectural and timing state.
func (t *Thread) SaveState(e *checkpoint.Encoder) {
	e.Mark("cpu.thread")
	for _, r := range t.regs {
		e.U64(r)
	}
	e.U64(t.pc)
	e.I64(t.issueUnits)
	e.I64(t.stallCycles)
	e.Bool(t.interfering)
	for _, src := range t.taintSrc {
		e.U64(src)
	}
	e.U64(t.committed)
	e.Bool(t.halted)
}

// LoadState restores state saved by SaveState.
func (t *Thread) LoadState(d *checkpoint.Decoder) error {
	d.Expect("cpu.thread")
	for i := range t.regs {
		t.regs[i] = d.U64()
	}
	t.pc = d.U64()
	t.issueUnits = d.I64()
	t.stallCycles = d.I64()
	t.interfering = d.Bool()
	for i := range t.taintSrc {
		t.taintSrc[i] = d.U64()
	}
	t.committed = d.U64()
	t.halted = d.Bool()
	return d.Err()
}

// SaveState serializes the decoded program image, which linking patches in
// place. The block cache is deliberately excluded: it is a pure cache over
// insts and rebuilds lazily after restore (see DESIGN §12 on the
// engine-cache exclusion).
func (s *ProgramSpace) SaveState(e *checkpoint.Encoder) {
	e.Mark("cpu.progspace")
	e.U64(s.base)
	e.Len(len(s.insts))
	for _, in := range s.insts {
		in.Save(e)
	}
}

// LoadState restores the patched program image. The instruction slice is
// decoded in place so the block cache's source pointer stays valid; a
// generation bump discards any stale decoded blocks.
func (s *ProgramSpace) LoadState(d *checkpoint.Decoder) error {
	d.Expect("cpu.progspace")
	base := d.U64()
	n := d.Len()
	if d.Err() != nil {
		return d.Err()
	}
	if base != s.base || n != len(s.insts) {
		return fmt.Errorf("%w: program image mismatch (base %#x/%#x, %d/%d instructions)",
			checkpoint.ErrCorrupt, base, s.base, n, len(s.insts))
	}
	for i := range s.insts {
		s.insts[i] = isa.LoadInst(d)
	}
	s.blocks.Invalidate()
	// Compiled chains are never serialized; the generation bump above already
	// quarantines stale chains, and the eager drop keeps a restore into a
	// live machine (the sentinel's rewind) from pinning dead compiled code.
	s.blocks.DropCompiled()
	return d.Err()
}
