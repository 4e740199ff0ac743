package cpu

import (
	"tridentsp/internal/isa"
)

// This file implements the second level of the simulator's fast path: a
// compiled-superblock cache over a code image. A superblock is a maximal
// straight-line run of instructions the compiled executor (ExecCompiled) can
// retire without the full Step dispatch: register-only ALU work, memory
// operations that stay on the hierarchy's fast paths (loads that hit L1,
// non-blocking stores and prefetches), and one optional conditional branch
// terminating the run — included so a hot loop's back-edge can fold the
// block onto itself and whole iterations retire per call. Everything
// event-driven (chaos edges, watchdog probes, the helper-thread pump)
// happens between batches, at the same instruction boundaries the one-step
// loop would have used; anything that charges stalls or redirects control
// unpredictably (FDIV, jumps, HALT, patched words) ends the block and falls
// back to step().

// memberKind classifies an opcode's role in a superblock.
type memberKind uint8

const (
	// memberNo: not batchable — ends the block, excluded.
	memberNo memberKind = iota
	// memberPlain: reads and writes registers only, at the fixed
	// one-issue-slot cost (FDIV is excluded: it charges stallCycles).
	memberPlain
	// memberMem: LD/LDNF/ST/PREFETCH — batchable while the memory
	// hierarchy's fast probes apply; a declined probe stops the batch
	// mid-block with exact resume state.
	memberMem
	// memberBranch: a conditional branch — included as the block's final
	// instruction so the executor can resolve it inline (with the real
	// predictor) and fold a taken back-edge to the block entry.
	memberBranch
)

// blockMember classifies op. Only conditional branches terminate a block
// while belonging to it; BR/JMP/HALT and FDIV end the scan outright.
func blockMember(op isa.Op) memberKind {
	switch op {
	case isa.NOP,
		isa.ADD, isa.SUB, isa.MUL, isa.AND, isa.OR, isa.XOR,
		isa.SLL, isa.SRL, isa.CMPLT, isa.CMPEQ,
		isa.ADDI, isa.SUBI, isa.MULI, isa.ANDI, isa.ORI, isa.XORI,
		isa.SLLI, isa.SRLI, isa.CMPLTI, isa.CMPEQI,
		isa.LDA, isa.MOVE, isa.LDI, isa.LDIH,
		isa.FADD, isa.FMUL:
		return memberPlain
	case isa.LD, isa.LDNF, isa.ST, isa.PREFETCH:
		return memberMem
	case isa.BEQ, isa.BNE, isa.BLT, isa.BGE:
		return memberBranch
	}
	return memberNo
}

// Block is one superblock: a straight-line run of member instructions, with
// at most one conditional branch, in final position. It is the compiler's
// input (Compile); the slices may alias a decoded image, which the compiled
// chain copies rather than retains.
type Block struct {
	Insts []isa.Inst
	// Weights holds per-instruction original-instruction weights (code-cache
	// traces carry 0 for inserted code, >1 for folded code). nil means every
	// instruction weighs exactly 1 (original program code).
	Weights []int
}

// BlockStats counts block-cache activity: lazy re-derivations after
// invalidation (Rebuilds), generation bumps (Invalidations), calls into
// Compile (Compiles), and stale views or head chains kept because their
// content survived the bump (Revalidations). Always on — counter increments
// on paths that already do real work — and snapshotted into the telemetry
// registry.
// Resident is not a counter: Stats counts the entries currently holding a
// view into a chain (stale or not), so tests can prove DropCompiled released
// them.
type BlockStats struct {
	Rebuilds      uint64
	Invalidations uint64
	Compiles      uint64
	Revalidations uint64
	Resident      uint64
}

// blockEnt memoizes the launch point for the block starting at one word
// index — a view into its run's chain (nil: no block starts there). gen tags
// the entry with the cache generation it was derived under, so a patch
// invalidates every entry with a single counter bump instead of a sweep.
type blockEnt struct {
	gen uint64
	cb  *CompiledBlock
}

// BlockCache lazily maps instruction addresses to compiled superblocks over
// one decoded image. Invalidation is O(1): any mutation of the image bumps
// gen, and stale entries re-derive on first use.
type BlockCache struct {
	base    uint64
	insts   []isa.Inst
	weights []int
	gen     uint64
	ents    []blockEnt

	stats BlockStats
}

// NewBlockCache creates an empty cache; SetSource attaches the image.
func NewBlockCache(base uint64) *BlockCache {
	return &BlockCache{base: base, gen: 1}
}

// SetSource (re)points the cache at the decoded image and invalidates every
// cached chain. Call it whenever the image slice may have been reallocated,
// extended, or truncated (e.g. a trace placement appending to the code
// cache); for in-place word patches Invalidate suffices.
func (c *BlockCache) SetSource(insts []isa.Inst, weights []int) {
	c.insts, c.weights = insts, weights
	c.gen++
	c.stats.Invalidations++
	// Replace the entry array rather than appending over (or re-slicing) the
	// old one, so it always covers exactly the new image — recycling it
	// would keep gen-guarded stale entries alive across regrowth, the
	// regrowth-pinning bug this fixed. Entries are carried over by value
	// (truncation drops the tail) because word indices are stable under
	// append-style regrowth and every carried entry is gen-stale, so its
	// first use under the new generation revalidates the view against
	// current content (see refresh) — a placement that appends a trace
	// must not throw away every compiled chain. Entries whose content did
	// change recompile on first use; DropCompiled covers the paths that must
	// release chains eagerly.
	old := c.ents
	c.ents = make([]blockEnt, len(insts))
	copy(c.ents, old)
}

// Invalidate marks every cached view stale (the image was patched in
// place). Views are keyed by (word, gen) and revalidate or recompile lazily
// on first use under the new generation.
func (c *BlockCache) Invalidate() {
	c.gen++
	c.stats.Invalidations++
}

// DropCompiled eagerly discards every compiled chain. The generation counter
// already quarantines them lazily; this is for the paths that will never
// touch the entries again and must not keep them reachable — sentinel
// demotion (the fast path is disabled for the rest of the run) and
// checkpoint restore into a live machine.
func (c *BlockCache) DropCompiled() {
	clear(c.ents)
}

// Stats returns the activity counters and the resident view count.
func (c *BlockCache) Stats() BlockStats {
	st := c.stats
	for i := range c.ents {
		if c.ents[i].cb != nil {
			st.Resident++
		}
	}
	return st
}

// CompiledAt returns the compiled superblock starting at pc, or nil when pc
// is outside the image, unaligned, or the instruction at pc is not a block
// member. A view resident under the current generation is returned at the
// cost of two bounds checks and a generation compare — the fast path calls
// this on every launch. Otherwise the block is re-derived from the image and
// its run's chain revalidated by content or compiled, once per generation.
func (c *BlockCache) CompiledAt(pc uint64) *CompiledBlock {
	if pc < c.base || pc%isa.WordSize != 0 {
		return nil
	}
	i := (pc - c.base) / isa.WordSize
	if i >= uint64(len(c.ents)) {
		return nil
	}
	e := &c.ents[i]
	if e.gen != c.gen {
		c.refresh(e, int(i))
	}
	return e.cb
}

// refresh re-derives the block at word index i under the current
// generation. Every block starting inside a run of members is a suffix of
// the block at the run head h — the first member after a non-member or a
// branch — so only the head is compiled, and i gets the head chain's view
// at offset i−h. A carried view whose own instructions survived the bump is
// kept as it is, and a carried head chain whose content survived is
// revalidated rather than recompiled: self-repair's PatchImm bumps the
// generation constantly, and without content revalidation every repair
// would recompile the whole image.
func (c *BlockCache) refresh(e *blockEnt, i int) {
	c.stats.Rebuilds++
	e.gen = c.gen
	if blockMember(c.insts[i].Op) == memberNo {
		e.cb = nil
		return
	}
	end := i
	for end < len(c.insts) && runBody(c.insts[end].Op) {
		end++
	}
	if end < len(c.insts) && blockMember(c.insts[end].Op) == memberBranch {
		end++
	}
	if e.cb != nil && e.cb.Matches(c.block(i, end)) {
		c.stats.Revalidations++
		return
	}
	h := i
	for h > 0 && runBody(c.insts[h-1].Op) {
		h--
	}
	if h == i {
		// Compile accepts every block the scan above derives, so a nil
		// chain here would be a compiler bug; it degrades to the one-step
		// loop.
		e.cb = Compile(c.block(i, end), c.base+uint64(i)*isa.WordSize)
		c.stats.Compiles++
		return
	}
	head := &c.ents[h]
	if head.gen != c.gen {
		c.refresh(head, h)
	}
	// The head's view need not sit at its chain's offset 0: a carried view
	// revalidated as a suffix of an older, longer run keeps its offset.
	if hc := head.cb; hc != nil {
		e.cb = &hc.c.views[hc.start+i-h]
	} else {
		e.cb = nil
	}
}

// block returns the image's instructions [i, end) as a Block.
func (c *BlockCache) block(i, end int) Block {
	b := Block{Insts: c.insts[i:end]}
	if c.weights != nil {
		b.Weights = c.weights[i:end]
	}
	return b
}

// runBody reports whether op continues a run: a member that is not its
// terminating branch.
func runBody(op isa.Op) bool {
	k := blockMember(op)
	return k == memberPlain || k == memberMem
}
