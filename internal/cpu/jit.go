package cpu

import (
	"math"
	"sync"

	"tridentsp/internal/isa"
	"tridentsp/internal/memsys"
)

// This file implements the third level of the simulator's fast path: a
// threaded-code compiler over superblocks. Compile lowers a Block into a
// chain of specialized Go closures — register indices and immediates folded
// into captures, the zero-register and taint-propagation cases resolved at
// compile time, runs of plain ALU instructions fused into a single call,
// branch targets precomputed — and ExecCompiled drives the chain from any
// of its instructions (a CompiledBlock names the launch point). Loads run
// through the hierarchy's L1-hit fast probe, stores and prefetches through
// their direct hierarchy calls, and the terminating conditional branch
// through the real predictor, folding a taken back-edge onto the launch
// point so whole loop iterations retire per call. Whenever an instruction
// cannot be proven equivalent to the full Step dispatch (a load the fast
// probe declines, a missing memory system), the chain stops *before* that
// instruction with exact architectural state, so the caller's one-step loop
// resumes on precisely the instruction that needs the slow path.
//
// The compiled form captures no slice of the source image (everything it
// needs is copied into the segment descriptors), so a CompiledBlock never
// pins a patched-over image and is invalidated for free by the block
// cache's generation counter. The equivalence obligation is Step's, opcode
// by opcode: post-commit stop conditions (weight budget, issue-unit horizon
// cap, block end) are evaluated after each commit, NeedSlow stops happen
// *before* the offending instruction, hooked loads and branches pre-stop
// near the horizon, and a taken back-edge folds, onto the launch point
// only, while no stop condition holds. The lockstep tests in jit_test.go and
// the core's slow-versus-fast differential fuzzer hold the chain
// bit-identical to the one-step loop.

// SBHooks lets the simulation core observe batched instructions that its
// slow path would have monitored, without ExecCompiled knowing anything
// about Trident. All fields are optional; a nil hook skips the observation
// (and its cost) entirely.
type SBHooks struct {
	// Load is called after each LD commits (post issue charge, so now is the
	// same post-commit cycle the slow path's StepInfo.Now would report).
	// Returning true ends the batch after this instruction — used when the
	// observation raised an event the between-batch machinery must see at
	// exactly this boundary.
	Load func(pc, addr, value uint64, res memsys.Result, now int64) bool
	// Branch is called after a conditional branch commits (and after any
	// misprediction stall was charged). Returning true ends the batch.
	// When Branch is non-nil, branches near the horizon conservatively
	// pre-stop (accounting for a possible misprediction penalty) so a hook
	// never observes an instruction that crossed the horizon.
	Branch func(pc uint64, in *isa.Inst, taken bool, now int64) bool
	// LoopBack is called when a taken branch folds back to the launch point
	// and the batch continues: the launch instruction is guaranteed to
	// re-execute within this batch. now is the branch's post-commit cycle.
	LoopBack func(now int64)
}

// SBExec reports what one ExecCompiled call did.
type SBExec struct {
	// N is the number of instructions retired; Weight their total weight.
	N      int
	Weight uint64
	// Loads counts retired LD instructions; WouldMiss counts those whose
	// L1 hit was a first-use prefetched line (Outcome == HitPrefetched) —
	// the only "would have missed without prefetching" case a fast-path
	// load can be, since a real L1 miss declines the probe.
	Loads     uint32
	WouldMiss uint32
	// NeedSlow is true when the batch stopped *before* an instruction that
	// requires the full Step dispatch; t.PC() addresses that instruction.
	// NeedSlow with N == 0 means not even the first instruction was viable.
	NeedSlow bool
}

// sbCaps converts the horizon into fixed-point issue-unit caps under the
// current stallCycles. unitsCap is the exact post-commit bound ("commit at
// or past the horizon" ⟺ issueUnits >= unitsCap). brCap is the conservative
// pre-commit bound for hooked branches: it additionally reserves a full
// misprediction penalty, so a branch that passes `issueUnits+units < brCap`
// cannot cross the horizon even if it mispredicts. Both must be recomputed
// whenever stallCycles changes.
func (t *Thread) sbCaps(horizon int64, needBr bool) (unitsCap, brCap int64) {
	unitsCap, brCap = math.MaxInt64, math.MaxInt64
	if horizon == math.MaxInt64 {
		return
	}
	rem := horizon - t.stallCycles
	switch {
	case rem <= 0:
		unitsCap = 0
	case rem <= t.maxCapCycles:
		unitsCap = rem * t.unitsPerCycle
	}
	if needBr {
		rem -= t.cfg.MispredictPenalty
		switch {
		case rem <= 0:
			brCap = 0
		case rem <= t.maxCapCycles:
			brCap = rem * t.unitsPerCycle
		}
	}
	return
}

// segKind classifies one compiled segment.
type segKind uint8

const (
	segALU segKind = iota
	segLoad
	segLDNF
	segStore
	segPrefetch
	segBranch
)

// jitSeg is one step of the compiled chain: a fused run of plain ALU
// instructions, a single memory operation with folded operands, or the
// terminating conditional branch.
type jitSeg struct {
	kind segKind
	idx  int    // index of the segment's first instruction in the block
	n    int    // instructions in the segment (1 unless segALU)
	w    uint64 // total weight of the segment
	pc   uint64 // address of the segment's first instruction

	// segALU: the whole run as one call.
	fused func(*Thread)

	// Memory operations, operands folded at compile time.
	rd, ra isa.Reg
	rb     isa.Reg
	imm    uint64

	// segBranch: specialized direction test and precomputed taken target.
	cond   func(*Thread) bool
	target uint64
}

// jitChain is one superblock run lowered to a closure chain. It is immutable
// after compileBlock and holds no reference to the decoded image it came
// from. Every block that starts inside the run ends at the same terminator,
// so one chain serves launches at any of its instructions (see views).
type jitChain struct {
	entry uint64
	n     int
	segs  []jitSeg
	ops   []func(*Thread) // per-instruction closures for stepwise ALU tails

	// srcInsts/srcWeights are private copies of the source block, kept so a
	// generation bump can revalidate the chain by content instead of
	// recompiling it. Self-repair patches one immediate at a time but the
	// counter bump invalidates every block in the image; comparing a few
	// dozen words per block is far cheaper than recompiling every chain
	// after every PatchImm.
	srcInsts   []isa.Inst
	srcWeights []int

	// views[k] launches the chain at its k-th instruction. Built with the
	// chain, so a lookup hands out a launch point without allocating and
	// the same (chain, offset) is always the same pointer.
	views []CompiledBlock
}

// CompiledBlock is a launch point into a compiled chain: the superblock that
// starts at instruction start of the chain's run and ends at its terminator.
// Like the chain it is immutable and shared.
type CompiledBlock struct {
	c     *jitChain
	start int // offset of the launch instruction in the chain
	seg   int // index of the segment holding the launch instruction
}

// matches reports whether b is identical to the chain's source from
// instruction from onwards.
func (c *jitChain) matches(b Block, from int) bool {
	src := c.srcInsts[from:]
	if len(b.Insts) != len(src) {
		return false
	}
	for i, in := range b.Insts {
		if in != src[i] {
			return false
		}
	}
	if (b.Weights == nil) != (c.srcWeights == nil) {
		return false
	}
	for i, w := range b.Weights {
		if w != c.srcWeights[from+i] {
			return false
		}
	}
	return true
}

// Matches reports whether the block's current content is identical to the
// source its chain was compiled from, from the launch point to the end,
// meaning the view is still valid.
func (cb *CompiledBlock) Matches(b Block) bool { return cb.c.matches(b, cb.start) }

// weight returns instruction k's original-instruction weight.
func (c *jitChain) weight(k int) uint64 {
	if c.srcWeights == nil {
		return 1
	}
	return uint64(c.srcWeights[k])
}

// weightSum returns the total weight of instructions [k, k+n).
func (c *jitChain) weightSum(k, n int) uint64 {
	if c.srcWeights == nil {
		return uint64(n)
	}
	var w uint64
	for _, x := range c.srcWeights[k : k+n] {
		w += uint64(x)
	}
	return w
}

// Entry returns the launch address: the block's first instruction.
func (cb *CompiledBlock) Entry() uint64 {
	return cb.c.entry + uint64(cb.start)*isa.WordSize
}

// Len returns the instruction count from the launch point to the block end.
func (cb *CompiledBlock) Len() int { return cb.c.n - cb.start }

// Prefix returns the chain for the first n instructions of cb's block
// (0 < n < Len()), starting at its launch point and compiled through the
// shared cache like any other block — the cache keys on entry and length,
// so the prefix is its own chain. The core uses it for an in-trace block
// that would otherwise run past its placement's end.
func (cb *CompiledBlock) Prefix(n int) *CompiledBlock {
	c := cb.c
	b := Block{Insts: c.srcInsts[cb.start : cb.start+n]}
	if c.srcWeights != nil {
		b.Weights = c.srcWeights[cb.start : cb.start+n]
	}
	return Compile(b, cb.Entry())
}

// jitNop is the compiled form of NOP (and of any ALU write to the hardwired
// zero register, which has no architectural effect).
func jitNop(*Thread) {}

// taint3 is the three-register taint-propagation rule shared by the compiled
// ALU closures (mirrors updateTaint's default arm).
func (t *Thread) taint3(rd, ra, rb isa.Reg) {
	if s := t.taintSrc[ra]; s != 0 {
		t.taintSrc[rd] = s
	} else {
		t.taintSrc[rd] = t.taintSrc[rb]
	}
}

// compileALU lowers one plain ALU instruction to a closure with operands,
// immediates, zero-register handling, and the taint rule folded in. It
// returns nil for opcodes that are not memberPlain.
func compileALU(in isa.Inst) func(*Thread) {
	rd, ra, rb := in.Rd, in.Ra, in.Rb
	imm := uint64(in.Imm)
	if in.Op == isa.NOP || rd == isa.ZeroReg {
		// No destination: none of the plain ALU opcodes has a side effect
		// beyond the register write and its taint, so this is a pure nop
		// (it still charges its issue slot and weight — the driver's job).
		switch blockMember(in.Op) {
		case memberPlain:
			return jitNop
		}
		return nil
	}
	switch in.Op {
	case isa.ADD, isa.FADD:
		return func(t *Thread) { t.regs[rd] = t.regs[ra] + t.regs[rb]; t.taint3(rd, ra, rb) }
	case isa.SUB:
		return func(t *Thread) { t.regs[rd] = t.regs[ra] - t.regs[rb]; t.taint3(rd, ra, rb) }
	case isa.MUL, isa.FMUL:
		return func(t *Thread) { t.regs[rd] = t.regs[ra] * t.regs[rb]; t.taint3(rd, ra, rb) }
	case isa.AND:
		return func(t *Thread) { t.regs[rd] = t.regs[ra] & t.regs[rb]; t.taint3(rd, ra, rb) }
	case isa.OR:
		return func(t *Thread) { t.regs[rd] = t.regs[ra] | t.regs[rb]; t.taint3(rd, ra, rb) }
	case isa.XOR:
		return func(t *Thread) { t.regs[rd] = t.regs[ra] ^ t.regs[rb]; t.taint3(rd, ra, rb) }
	case isa.SLL:
		return func(t *Thread) { t.regs[rd] = t.regs[ra] << (t.regs[rb] & 63); t.taint3(rd, ra, rb) }
	case isa.SRL:
		return func(t *Thread) { t.regs[rd] = t.regs[ra] >> (t.regs[rb] & 63); t.taint3(rd, ra, rb) }
	case isa.CMPLT:
		return func(t *Thread) {
			t.regs[rd] = b2u(int64(t.regs[ra]) < int64(t.regs[rb]))
			t.taint3(rd, ra, rb)
		}
	case isa.CMPEQ:
		return func(t *Thread) { t.regs[rd] = b2u(t.regs[ra] == t.regs[rb]); t.taint3(rd, ra, rb) }

	case isa.ADDI, isa.LDA:
		return func(t *Thread) { t.regs[rd] = t.regs[ra] + imm; t.taintSrc[rd] = t.taintSrc[ra] }
	case isa.SUBI:
		return func(t *Thread) { t.regs[rd] = t.regs[ra] - imm; t.taintSrc[rd] = t.taintSrc[ra] }
	case isa.MULI:
		return func(t *Thread) { t.regs[rd] = t.regs[ra] * imm; t.taintSrc[rd] = t.taintSrc[ra] }
	case isa.ANDI:
		return func(t *Thread) { t.regs[rd] = t.regs[ra] & imm; t.taintSrc[rd] = t.taintSrc[ra] }
	case isa.ORI:
		return func(t *Thread) { t.regs[rd] = t.regs[ra] | imm; t.taintSrc[rd] = t.taintSrc[ra] }
	case isa.XORI:
		return func(t *Thread) { t.regs[rd] = t.regs[ra] ^ imm; t.taintSrc[rd] = t.taintSrc[ra] }
	case isa.SLLI:
		sh := imm & 63
		return func(t *Thread) { t.regs[rd] = t.regs[ra] << sh; t.taintSrc[rd] = t.taintSrc[ra] }
	case isa.SRLI:
		sh := imm & 63
		return func(t *Thread) { t.regs[rd] = t.regs[ra] >> sh; t.taintSrc[rd] = t.taintSrc[ra] }
	case isa.CMPLTI:
		si := in.Imm
		return func(t *Thread) {
			t.regs[rd] = b2u(int64(t.regs[ra]) < si)
			t.taintSrc[rd] = t.taintSrc[ra]
		}
	case isa.CMPEQI:
		return func(t *Thread) { t.regs[rd] = b2u(t.regs[ra] == imm); t.taintSrc[rd] = t.taintSrc[ra] }
	case isa.MOVE:
		return func(t *Thread) { t.regs[rd] = t.regs[ra]; t.taintSrc[rd] = t.taintSrc[ra] }
	case isa.LDI:
		return func(t *Thread) { t.regs[rd] = imm; t.taintSrc[rd] = 0 }
	case isa.LDIH:
		low := uint64(uint32(in.Imm))
		return func(t *Thread) {
			t.regs[rd] = t.regs[ra]<<32 | low
			t.taintSrc[rd] = t.taintSrc[ra]
		}
	}
	return nil
}

// compileCond lowers a conditional branch's direction test.
func compileCond(op isa.Op, ra isa.Reg) func(*Thread) bool {
	switch op {
	case isa.BEQ:
		return func(t *Thread) bool { return t.regs[ra] == 0 }
	case isa.BNE:
		return func(t *Thread) bool { return t.regs[ra] != 0 }
	case isa.BLT:
		return func(t *Thread) bool { return int64(t.regs[ra]) < 0 }
	case isa.BGE:
		return func(t *Thread) bool { return int64(t.regs[ra]) >= 0 }
	}
	return nil
}

// jitShared is the process-wide compiled-block cache. A chain is
// immutable and closes over nothing but instruction content and absolute
// addresses, so two caches looking at identical code at the same address can
// share one chain. The experiment harness runs the same master programs
// through dozens of freshly constructed systems (one per configuration per
// figure), and without sharing each of them recompiled the same blocks from
// scratch — compilation was a top-five profile entry for whole-figure runs.
// Keys carry a content hash; a hit still verifies with Matches before reuse,
// so a collision degrades to a recompile, never to wrong code.
//
// The cache is sharded by key hash: parallel sampled windows run many
// Systems of the same workload concurrently, all compiling the same
// blocks at once, and a single mutex over one map serialized every
// compile across the pool (visible as lock contention in the race-leg
// profiles). Sixteen shards with per-shard mutexes keep the fast path one
// uncontended lock.
const jitShardCount = 16 // power of two; shard picked from the content hash

type jitShard struct {
	mu sync.Mutex
	m  map[jitKey]*jitChain
}

var jitShards [jitShardCount]jitShard

// jitShardCap bounds each shard; on overflow the shard's map is dropped (a
// simple epoch flush — long test runs build many distinct programs). The
// total capacity matches the previous single-map bound.
const jitShardCap = (1 << 14) / jitShardCount

// shardFor routes a key to its shard. The content hash's low bits are
// well-mixed (FNV-1a), and folding in the entry address separates identical
// bodies placed at different addresses.
func shardFor(k jitKey) *jitShard {
	return &jitShards[(k.hash^k.entry)&(jitShardCount-1)]
}

type jitKey struct {
	entry uint64
	n     int
	hash  uint64
}

// blockKey fingerprints a block's content (FNV-1a over fields and weights).
func blockKey(b Block, entry uint64) jitKey {
	h := uint64(1469598103934665603)
	mix := func(v uint64) {
		h = (h ^ v) * 1099511628211
	}
	for _, in := range b.Insts {
		mix(uint64(in.Op)<<24 | uint64(in.Rd)<<16 | uint64(in.Ra)<<8 | uint64(in.Rb))
		mix(uint64(in.Imm))
	}
	for _, w := range b.Weights {
		mix(uint64(w) + 0x9e3779b97f4a7c15)
	}
	return jitKey{entry: entry, n: len(b.Insts), hash: h}
}

// Compile lowers b, whose first instruction sits at entry, into a chain,
// consulting the shared cache first, and returns the launch point at its
// entry. b must be a well-formed superblock (member instructions only, at
// most one conditional branch, in final position); Compile returns nil if it
// encounters anything else, and the caller falls back to the one-step loop.
func Compile(b Block, entry uint64) *CompiledBlock {
	if len(b.Insts) == 0 {
		return nil
	}
	k := blockKey(b, entry)
	sh := shardFor(k)
	sh.mu.Lock()
	c := sh.m[k]
	sh.mu.Unlock()
	if c != nil && c.entry == entry && c.matches(b, 0) {
		return &c.views[0]
	}
	cb := compileBlock(b, entry)
	if cb == nil {
		return nil
	}
	sh.mu.Lock()
	if len(sh.m) >= jitShardCap {
		sh.m = nil
	}
	if sh.m == nil {
		sh.m = map[jitKey]*jitChain{}
	}
	sh.m[k] = cb.c
	sh.mu.Unlock()
	return cb
}

// compileBlock does the actual lowering (see Compile).
func compileBlock(b Block, entry uint64) *CompiledBlock {
	n := len(b.Insts)
	if n == 0 {
		return nil
	}
	c := &jitChain{
		entry:    entry,
		n:        n,
		ops:      make([]func(*Thread), n),
		srcInsts: append([]isa.Inst(nil), b.Insts...),
	}
	if b.Weights != nil {
		c.srcWeights = append([]int(nil), b.Weights...)
	}

	for i := 0; i < n; {
		in := b.Insts[i]
		pc := entry + uint64(i)*isa.WordSize
		switch blockMember(in.Op) {
		case memberPlain:
			// Extend the ALU run as far as it goes.
			j := i
			var w uint64
			nops := 0
			for j < n && blockMember(b.Insts[j].Op) == memberPlain {
				op := compileALU(b.Insts[j])
				if op == nil {
					return nil
				}
				c.ops[j] = op
				if b.Insts[j].Op == isa.NOP || b.Insts[j].Rd == isa.ZeroReg {
					nops++
				}
				w += c.weight(j)
				j++
			}
			run := c.ops[i:j]
			sg := jitSeg{kind: segALU, idx: i, n: j - i, w: w, pc: pc}
			if nops == 0 {
				sg.fused = fuseRunDense(run)
			} else {
				sg.fused = fuseSparse(run, b.Insts[i:j])
			}
			c.segs = append(c.segs, sg)
			i = j

		case memberMem:
			sg := jitSeg{
				idx: i, n: 1, w: c.weight(i), pc: pc,
				rd: in.Rd, ra: in.Ra, rb: in.Rb, imm: uint64(in.Imm),
			}
			switch in.Op {
			case isa.LD:
				sg.kind = segLoad
			case isa.LDNF:
				sg.kind = segLDNF
			case isa.ST:
				sg.kind = segStore
			case isa.PREFETCH:
				sg.kind = segPrefetch
			}
			c.segs = append(c.segs, sg)
			i++

		case memberBranch:
			if i != n-1 {
				return nil // branch not in final position: malformed block
			}
			c.segs = append(c.segs, jitSeg{
				kind: segBranch, idx: i, n: 1, w: c.weight(i), pc: pc,
				cond:   compileCond(in.Op, in.Ra),
				target: isa.BranchTarget(pc, in),
			})
			i++

		default:
			return nil
		}
	}
	c.views = make([]CompiledBlock, n)
	for si, sg := range c.segs {
		for k := sg.idx; k < sg.idx+sg.n; k++ {
			c.views[k] = CompiledBlock{c: c, start: k, seg: si}
		}
	}
	return &c.views[0]
}

// fuseRunDense fuses a nop-free run into a single call. The fused closure
// keeps fs itself, so callers must not modify it afterwards.
func fuseRunDense(fs []func(*Thread)) func(*Thread) {
	switch len(fs) {
	case 0:
		return jitNop
	case 1:
		return fs[0]
	case 2:
		f0, f1 := fs[0], fs[1]
		return func(t *Thread) { f0(t); f1(t) }
	case 3:
		f0, f1, f2 := fs[0], fs[1], fs[2]
		return func(t *Thread) { f0(t); f1(t); f2(t) }
	case 4:
		f0, f1, f2, f3 := fs[0], fs[1], fs[2], fs[3]
		return func(t *Thread) { f0(t); f1(t); f2(t); f3(t) }
	default:
		return func(t *Thread) {
			for _, f := range fs {
				f(t)
			}
		}
	}
}

// fuseSparse fuses a run that contains nops, eliding them from the body.
func fuseSparse(fs []func(*Thread), ins []isa.Inst) func(*Thread) {
	body := make([]func(*Thread), 0, len(fs))
	for k, f := range fs {
		if ins[k].Op == isa.NOP || ins[k].Rd == isa.ZeroReg {
			continue
		}
		body = append(body, f)
	}
	return fuseRunDense(body)
}

// ExecCompiled retires instructions from cb until the cumulative weight
// reaches weightBudget, the thread's cycle counter reaches horizon, a hook
// asks to stop, the block ends, or an instruction needs the slow path —
// whichever comes first. Post-commit stop conditions are evaluated after
// each commit, so the final instruction is exactly the one whose commit
// crossed the budget or horizon; NeedSlow stops happen *before* the
// offending instruction (t.PC() then addresses it), hooked loads and
// branches that might cross the horizon pre-stop, and a taken branch back to
// the launch point folds onto it — leaving committed/PC and all machine
// state exactly as the one-step loop would have them. The caller guarantees
// t.PC() == cb.Entry() and the thread is not halted.
func (t *Thread) ExecCompiled(cb *CompiledBlock, weightBudget uint64, horizon int64, hooks *SBHooks) SBExec {
	var (
		hookLoad   func(pc, addr, value uint64, res memsys.Result, now int64) bool
		hookBranch func(pc uint64, in *isa.Inst, taken bool, now int64) bool
		hookLoop   func(now int64)
	)
	if hooks != nil {
		hookLoad, hookBranch, hookLoop = hooks.Load, hooks.Branch, hooks.LoopBack
	}
	unitsCap, brCap := t.sbCaps(horizon, hookBranch != nil)
	units := t.unitsPerInst
	if t.interfering {
		units += t.cfg.InterferenceNum
	}
	memOK := t.hier != nil && t.mem != nil
	loadFastOK := memOK && t.hier.L1Latency() <= t.cfg.OverlapWindow

	c := cb.c
	launchPC := cb.Entry()
	var ex SBExec
	si := cb.seg
	for {
		sg := &c.segs[si]
		switch sg.kind {
		case segALU:
			k, n, w, fused := sg.idx, sg.n, sg.w, sg.fused
			if si == cb.seg && cb.start != k {
				// Launched (or folded back) inside the run: commit its
				// remainder, one closure per instruction.
				n -= cb.start - k
				k = cb.start
				w = c.weightSum(k, n)
				fused = nil
			}
			// Whole-run fast case: when the run's final commit lands strictly
			// below both the weight budget and the unit cap, no intermediate
			// post-commit check can fire either (both accumulators increase
			// monotonically), so the run executes without per-instruction
			// bookkeeping.
			addUnits := int64(n) * units
			if ex.Weight+w < weightBudget && t.issueUnits+addUnits < unitsCap {
				if fused != nil {
					fused(t)
				} else {
					for _, op := range c.ops[k : k+n] {
						op(t)
					}
				}
				t.issueUnits += addUnits
				ex.N += n
				ex.Weight += w
				if si+1 == len(c.segs) {
					// Block ends in a straight-line instruction.
					t.pc = c.entry + uint64(k+n)*isa.WordSize
					t.committed += uint64(ex.N)
					return ex
				}
				si++
				continue
			}
			// Stepwise tail: some instruction in this run crosses the budget
			// or the cap; commit one at a time with Step's exact
			// post-commit checks.
			for j := k; j < k+n; j++ {
				c.ops[j](t)
				t.issueUnits += units
				ex.N++
				ex.Weight += c.weight(j)
				if ex.Weight >= weightBudget || t.issueUnits >= unitsCap || j+1 == c.n {
					t.pc = c.entry + uint64(j+1)*isa.WordSize
					t.committed += uint64(ex.N)
					return ex
				}
			}
			si++

		case segLoad:
			if !loadFastOK || (hookLoad != nil && t.issueUnits+units >= unitsCap) {
				return t.jitNeedSlow(sg.pc, &ex)
			}
			addr := t.regs[sg.ra] + sg.imm
			res, ok := t.hier.LoadFast(sg.pc, addr, t.Now())
			if !ok {
				return t.jitNeedSlow(sg.pc, &ex)
			}
			v := t.mem.Load(addr)
			if sg.rd != isa.ZeroReg {
				t.regs[sg.rd] = v
				t.taintSrc[sg.rd] = sg.pc
			}
			ex.Loads++
			if res.Outcome == memsys.HitPrefetched {
				ex.WouldMiss++
			}
			t.issueUnits += units
			ex.N++
			ex.Weight += sg.w
			stop := false
			if hookLoad != nil {
				stop = hookLoad(sg.pc, addr, v, res, t.Now())
			}
			if stop || ex.Weight >= weightBudget || t.issueUnits >= unitsCap || sg.idx+1 == c.n {
				t.pc = sg.pc + isa.WordSize
				t.committed += uint64(ex.N)
				return ex
			}
			si++

		case segLDNF:
			if !memOK {
				return t.jitNeedSlow(sg.pc, &ex)
			}
			addr := t.regs[sg.ra] + sg.imm
			t.hier.Prefetch(addr, t.Now())
			var v uint64
			if t.mem.Valid(addr) {
				v = t.mem.Load(addr)
			}
			if sg.rd != isa.ZeroReg {
				t.regs[sg.rd] = v
				t.taintSrc[sg.rd] = 0
			}
			t.issueUnits += units
			ex.N++
			ex.Weight += sg.w
			if ex.Weight >= weightBudget || t.issueUnits >= unitsCap || sg.idx+1 == c.n {
				t.pc = sg.pc + isa.WordSize
				t.committed += uint64(ex.N)
				return ex
			}
			si++

		case segStore:
			if !memOK || !t.hier.CanStoreFast() {
				return t.jitNeedSlow(sg.pc, &ex)
			}
			addr := t.regs[sg.ra] + sg.imm
			t.mem.Store(addr, t.regs[sg.rb])
			t.hier.StoreFast(addr, t.Now())
			t.issueUnits += units
			ex.N++
			ex.Weight += sg.w
			if ex.Weight >= weightBudget || t.issueUnits >= unitsCap || sg.idx+1 == c.n {
				t.pc = sg.pc + isa.WordSize
				t.committed += uint64(ex.N)
				return ex
			}
			si++

		case segPrefetch:
			if !memOK {
				return t.jitNeedSlow(sg.pc, &ex)
			}
			t.hier.Prefetch(t.regs[sg.ra]+sg.imm, t.Now())
			t.issueUnits += units
			ex.N++
			ex.Weight += sg.w
			if ex.Weight >= weightBudget || t.issueUnits >= unitsCap || sg.idx+1 == c.n {
				t.pc = sg.pc + isa.WordSize
				t.committed += uint64(ex.N)
				return ex
			}
			si++

		case segBranch:
			if hookBranch != nil && t.issueUnits+units >= brCap {
				return t.jitNeedSlow(sg.pc, &ex)
			}
			taken := sg.cond(t)
			nextPC := sg.pc + isa.WordSize
			if taken {
				nextPC = sg.target
			}
			if !t.bp.Update(sg.pc, taken) {
				t.stallCycles += t.cfg.MispredictPenalty
				// stallCycles moved: the cached unit caps are stale.
				unitsCap, brCap = t.sbCaps(horizon, hookBranch != nil)
			}
			t.issueUnits += units
			ex.N++
			ex.Weight += sg.w
			stop := false
			if hookBranch != nil {
				stop = hookBranch(sg.pc, &c.srcInsts[sg.idx], taken, t.Now())
			}
			if taken && sg.target == launchPC && !stop &&
				ex.Weight < weightBudget && t.issueUnits < unitsCap {
				// Fold the back-edge: restart the chain at the launch point.
				if hookLoop != nil {
					hookLoop(t.Now())
				}
				si = cb.seg
				continue
			}
			t.pc = nextPC
			t.committed += uint64(ex.N)
			return ex
		}
	}
}

// jitNeedSlow finalizes a NeedSlow stop before the instruction at pc.
func (t *Thread) jitNeedSlow(pc uint64, ex *SBExec) SBExec {
	ex.NeedSlow = true
	t.pc = pc
	t.committed += uint64(ex.N)
	return *ex
}
