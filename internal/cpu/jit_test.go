package cpu

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"tridentsp/internal/isa"
	"tridentsp/internal/memsys"
)

// runCompiled drives a thread through compiled chains, falling back to the
// one-step interpreter exactly as the core fast path does: Step when no
// block starts at PC, and Step once after a NeedSlow or empty batch.
func runCompiled(t *testing.T, th *Thread, ps *ProgramSpace) {
	t.Helper()
	for guard := 0; !th.Halted(); guard++ {
		if guard > 1_000_000 {
			t.Fatal("compiled run did not terminate")
		}
		cb := ps.CompiledAt(th.PC())
		if cb == nil {
			th.Step()
			continue
		}
		ex := th.ExecCompiled(cb, math.MaxUint64, math.MaxInt64, nil)
		if ex.N == 0 || ex.NeedSlow {
			th.Step()
		}
	}
}

// richKernel is a loop that touches every segment kind the compiler emits:
// store, non-faulting load, load, prefetch, a long ALU run that mixes NOP and
// zero-register writes (the sparse fuse) with live arithmetic (the dense
// fuse), and a folding back-edge. Loop head at 0x1020.
func richKernel() []isa.Inst {
	return []isa.Inst{
		{Op: isa.LDI, Rd: 1, Imm: 0x4000},                         // 0x1000 base pointer
		{Op: isa.LDI, Rd: 2, Imm: 48},                             // 0x1008 counter
		{Op: isa.LDI, Rd: 6, Imm: 0x1234},                         // 0x1010 store pattern
		{Op: isa.LDI, Rd: 8, Imm: 3},                              // 0x1018 shift amount
		{Op: isa.ST, Ra: 1, Rb: 6, Imm: 0},                        // 0x1020 loop: mem[r1] = r6
		{Op: isa.LDNF, Rd: 7, Ra: 1, Imm: 8},                      // 0x1028
		{Op: isa.LD, Rd: 3, Ra: 1, Imm: 0},                        // 0x1030
		{Op: isa.PREFETCH, Ra: 1, Imm: 128},                       // 0x1038
		{Op: isa.NOP},                                             // 0x1040 elided by the sparse fuse
		{Op: isa.ADD, Rd: 0, Ra: 3, Rb: 6},                        // 0x1048 zero-reg write: also elided
		{Op: isa.XOR, Rd: 4, Ra: 4, Rb: 3},                        // 0x1050
		{Op: isa.SLL, Rd: 5, Ra: 3, Rb: 8},                        // 0x1058
		{Op: isa.CMPLT, Rd: 9, Ra: 2, Rb: 8},                      // 0x1060
		{Op: isa.MOVE, Rd: 10, Ra: 4},                             // 0x1068
		{Op: isa.ADDI, Rd: 1, Ra: 1, Imm: 8},                      // 0x1070
		{Op: isa.SUBI, Rd: 2, Ra: 2, Imm: 1},                      // 0x1078
		{Op: isa.BNE, Ra: 2, Imm: isa.BranchDisp(0x1080, 0x1020)}, // 0x1080
		{Op: isa.HALT},                                            // 0x1088
	}
}

// TestExecCompiledMatchesInterpreter is the compiled executor's core
// equivalence obligation: the chains run to completion leave bit-identical
// architectural, timing, taint, and memory-system state to the one-step
// interpreter (Step), on a kernel that exercises every segment kind.
func TestExecCompiledMatchesInterpreter(t *testing.T) {
	p := buildProgram(t, richKernel())

	ref, _ := newTestThread(p)
	runRef(ref)

	th, ps := newTestThread(p)
	runCompiled(t, th, ps)
	assertSameState(t, th, ref)
	if th.Reg(5) == 0 {
		t.Fatal("kernel computed nothing; test is vacuous")
	}
	if ps.BlockStats().Compiles == 0 {
		t.Fatal("no block was compiled; test never exercised a chain")
	}
}

// TestExecCompiledStopsBeforeColdLoad forces an L1 miss mid-block and pins
// the resume contract: a cold load stops the chain with NeedSlow, N counting
// only the retired prefix, and PC addressing exactly the declining load; the
// unswept expired fill keeps declining (the sweep is where the slow path does
// its redundancy accounting); and after the slow path sweeps it the chain
// resumes with a fast load, the hierarchy having seen each load exactly once.
func TestExecCompiledStopsBeforeColdLoad(t *testing.T) {
	seq := []isa.Inst{
		{Op: isa.LDI, Rd: 1, Imm: 0x4000},    // 0x1000
		{Op: isa.ADDI, Rd: 2, Ra: 2, Imm: 7}, // 0x1008
		{Op: isa.LD, Rd: 3, Ra: 1, Imm: 0},   // 0x1010 cold: must stop here
		{Op: isa.LD, Rd: 4, Ra: 1, Imm: 0},   // 0x1018 sweeps the expired fill
		{Op: isa.LD, Rd: 5, Ra: 1, Imm: 0},   // 0x1020 fast-probe hit
		{Op: isa.HALT},                       // 0x1028
	}
	p := buildProgram(t, seq)
	th, ps := newTestThread(p)

	cb := ps.CompiledAt(0x1000)
	if cb == nil {
		t.Fatal("no compiled block at entry")
	}
	if cb.Entry() != 0x1000 || cb.Len() != 5 {
		t.Fatalf("chain entry=%#x len=%d, want 0x1000 len 5", cb.Entry(), cb.Len())
	}
	ex := th.ExecCompiled(cb, math.MaxUint64, math.MaxInt64, nil)
	if !ex.NeedSlow || ex.N != 2 || th.PC() != 0x1010 {
		t.Fatalf("cold load: %+v pc=%#x, want NeedSlow after 2 at 0x1010", ex, th.PC())
	}
	if ex.Loads != 0 {
		t.Fatalf("declined load counted: Loads=%d", ex.Loads)
	}

	th.Step() // slow load: misses, fills L1
	if th.PC() != 0x1018 {
		t.Fatalf("pc after slow load = %#x, want 0x1018", th.PC())
	}
	th.AddStall(1000) // wait out the fill so the line's latency has elapsed

	cb2 := ps.CompiledAt(th.PC())
	if cb2 == nil {
		t.Fatal("no compiled block at resume point")
	}
	ex2 := th.ExecCompiled(cb2, math.MaxUint64, math.MaxInt64, nil)
	if !ex2.NeedSlow || ex2.N != 0 || th.PC() != 0x1018 {
		t.Fatalf("unswept fill: %+v pc=%#x, want immediate decline at 0x1018", ex2, th.PC())
	}
	th.Step() // slow load sweeps the fill

	cb3 := ps.CompiledAt(th.PC())
	if cb3 == nil {
		t.Fatal("no compiled block at second resume point")
	}
	ex3 := th.ExecCompiled(cb3, math.MaxUint64, math.MaxInt64, nil)
	if ex3.NeedSlow || ex3.N != 1 || ex3.Loads != 1 {
		t.Fatalf("resumed chain: %+v, want one fast load", ex3)
	}
	if th.Reg(5) != th.Reg(3) || th.Reg(4) != th.Reg(3) {
		t.Fatalf("load values diverged: r3=%#x r4=%#x r5=%#x",
			th.Reg(3), th.Reg(4), th.Reg(5))
	}
	if got := th.hier.Stats.Loads; got != 3 {
		t.Fatalf("hierarchy saw %d loads, want 3", got)
	}
	if got := th.hier.Stats.L1Hits; got != 2 {
		t.Fatalf("hierarchy saw %d L1 hits, want 2", got)
	}
}

// TestExecCompiledFoldsBackEdge pins the chain's loop folding: entered at the
// loop head, whole iterations retire per call, the branch predictor is
// trained exactly as the one-step loop trains it, and the final not-taken
// branch exits with the fall-through PC and Step's exact state.
func TestExecCompiledFoldsBackEdge(t *testing.T) {
	seq := []isa.Inst{
		{Op: isa.LDI, Rd: 1, Imm: 8},                              // 0x1000
		{Op: isa.SUBI, Rd: 1, Ra: 1, Imm: 1},                      // 0x1008 loop
		{Op: isa.BNE, Ra: 1, Imm: isa.BranchDisp(0x1010, 0x1008)}, // 0x1010
		{Op: isa.HALT}, // 0x1018
	}
	p := buildProgram(t, seq)

	ref, _ := newTestThread(p)
	runRef(ref)

	th, ps := newTestThread(p)
	// Entered at 0x1000 the back-edge targets 0x1008, not the entry: the
	// taken branch exits the chain after one iteration.
	ex := th.ExecCompiled(ps.CompiledAt(0x1000), math.MaxUint64, math.MaxInt64, nil)
	if ex.N != 3 || th.PC() != 0x1008 {
		t.Fatalf("entry chain: %+v pc=%#x, want 3 instructions ending at 0x1008", ex, th.PC())
	}
	// Entered at the loop head the remaining 7 iterations fold.
	ex2 := th.ExecCompiled(ps.CompiledAt(0x1008), math.MaxUint64, math.MaxInt64, nil)
	if ex2.N != 14 {
		t.Fatalf("folded chain retired %d instructions, want 14 (7 iterations)", ex2.N)
	}
	if th.PC() != 0x1018 {
		t.Fatalf("exit pc = %#x, want fall-through 0x1018", th.PC())
	}
	th.Step() // HALT
	assertSameState(t, th, ref)
}

// TestExecCompiledHonorsWeightBudgetAcrossFolds pins that folding never
// overruns the weight budget: the chain stops on the instruction whose commit
// reached it, mid-iteration, with PC resuming there.
func TestExecCompiledHonorsWeightBudgetAcrossFolds(t *testing.T) {
	seq := []isa.Inst{
		{Op: isa.SUBI, Rd: 1, Ra: 1, Imm: 1},                      // 0x1000 loop (r1 starts 0 → huge)
		{Op: isa.BNE, Ra: 1, Imm: isa.BranchDisp(0x1008, 0x1000)}, // 0x1008
		{Op: isa.HALT},
	}
	p := buildProgram(t, seq)
	th, ps := newTestThread(p)
	ex := th.ExecCompiled(ps.CompiledAt(0x1000), 11, math.MaxInt64, nil)
	if ex.N != 11 || ex.Weight != 11 {
		t.Fatalf("budget stop: %+v, want exactly 11 retired", ex)
	}
	// 11 instructions = 5 full iterations + the 6th SUBI: pc must sit on the
	// 6th iteration's branch.
	if th.PC() != 0x1008 {
		t.Fatalf("pc = %#x, want 0x1008 mid-iteration", th.PC())
	}
}

// TestExecCompiledLockstepRandomBudgets runs compiled chains with randomized
// weight budgets and horizons over the rich kernel, in lockstep with a
// reference thread that replays each batch one Step at a time. After every
// single batch the two threads must hold identical state, and the batch must
// have stopped exactly where the contract says: no earlier instruction met a
// stop condition, and the last one either met one (budget or horizon),
// ended the block, or — on NeedSlow — left PC on a memory operation the fast
// probes declined. The stop/resume contract at every boundary, not just at
// termination.
func TestExecCompiledLockstepRandomBudgets(t *testing.T) {
	p := buildProgram(t, richKernel())
	want, _ := newTestThread(p) // one-step reference
	got, gps := newTestThread(p)
	rng := rand.New(rand.NewSource(0xC0FFEE))

	batches, needSlow := 0, 0
	for guard := 0; !got.Halted(); guard++ {
		if guard > 1_000_000 {
			t.Fatal("lockstep run did not terminate")
		}
		cb := gps.CompiledAt(got.PC())
		if cb == nil {
			want.Step()
			got.Step()
			continue
		}
		budget := uint64(1 + rng.Intn(23))
		horizon := int64(math.MaxInt64)
		if rng.Intn(4) == 0 {
			horizon = want.Now() + int64(rng.Intn(40))
		}
		ex := got.ExecCompiled(cb, budget, horizon, nil)
		if ex.Weight != uint64(ex.N) {
			t.Fatalf("batch %d: weight %d for %d unweighted instructions", batches, ex.Weight, ex.N)
		}
		var last StepInfo
		for k := 1; k <= ex.N; k++ {
			last = want.Step()
			if k < ex.N && (uint64(k) >= budget || want.Now() >= horizon) {
				t.Fatalf("batch %d (budget=%d horizon=%d): ran past a stop after %d of %d",
					batches, budget, horizon, k, ex.N)
			}
		}
		assertSameState(t, got, want)
		if t.Failed() {
			t.FailNow()
		}
		blockEnd := ex.N > 0 && last.PC == cb.Entry()+uint64(cb.Len()-1)*isa.WordSize
		switch {
		case ex.NeedSlow:
			needSlow++
			if in, _ := gps.Fetch(got.PC()); blockMember(in.Op) != memberMem {
				t.Fatalf("batch %d: NeedSlow before non-memory %v at %#x", batches, in.Op, got.PC())
			}
		case ex.N == 0:
			t.Fatalf("batch %d: empty batch without NeedSlow", batches)
		case uint64(ex.N) < budget && want.Now() < horizon && !blockEnd:
			t.Fatalf("batch %d (budget=%d horizon=%d): stopped early after %d at %#x",
				batches, budget, horizon, ex.N, got.PC())
		}
		batches++
		if ex.N == 0 || ex.NeedSlow {
			want.Step()
			got.Step()
		}
	}
	runRef(want) // drain any trailing non-block instructions
	assertSameState(t, got, want)
	if batches < 10 || needSlow == 0 {
		t.Fatalf("%d lockstep batches, %d NeedSlow stops; test is vacuous", batches, needSlow)
	}
}

// hookLog records every SBHooks callback with its full argument tuple, and
// optionally stops on every stopEvery-th load — covering both the observation
// parity and the hook-requested-stop behaviour of the compiled executor.
// stopAt is the PC a requested stop must leave the thread at; any hook that
// fires while it is set ran past the stop and counts as an overrun.
type hookLog struct {
	events    []string
	loads     int
	stopEvery int
	stopAt    uint64
	overruns  int
}

func (h *hookLog) load(pc, addr, value uint64, res memsys.Result, now int64) {
	h.events = append(h.events, fmt.Sprintf(
		"ld pc=%#x addr=%#x v=%#x out=%d now=%d", pc, addr, value, res.Outcome, now))
}

func (h *hookLog) branch(pc uint64, op isa.Op, taken bool, now int64) {
	h.events = append(h.events, fmt.Sprintf(
		"br pc=%#x op=%d taken=%v now=%d", pc, op, taken, now))
}

func (h *hookLog) hooks() *SBHooks {
	return &SBHooks{
		Load: func(pc, addr, value uint64, res memsys.Result, now int64) bool {
			h.checkStop()
			h.loads++
			h.load(pc, addr, value, res, now)
			if h.stopEvery > 0 && h.loads%h.stopEvery == 0 {
				h.stopAt = pc + isa.WordSize
				return true
			}
			return false
		},
		Branch: func(pc uint64, in *isa.Inst, taken bool, now int64) bool {
			h.checkStop()
			h.branch(pc, in.Op, taken, now)
			return false
		},
		LoopBack: func(now int64) {
			h.checkStop()
			h.events = append(h.events, fmt.Sprintf("loop now=%d", now))
		},
	}
}

func (h *hookLog) checkStop() {
	if h.stopAt != 0 {
		h.overruns++
	}
}

// observe records what the core's slow path monitors for one stepped
// instruction: committed LDs and conditional branches, from StepInfo.
func (h *hookLog) observe(si StepInfo) {
	switch blockMember(si.Inst.Op) {
	case memberMem:
		if si.Inst.Op == isa.LD {
			h.load(si.PC, si.LoadAddr, si.LoadValue, si.LoadRes, si.Now)
		}
	case memberBranch:
		h.branch(si.PC, si.Inst.Op, si.Branch == BranchTaken, si.Now)
	}
}

// TestExecCompiledHookParity drives the compiled executor over the rich
// kernel with recording hooks (stopping on every third load) and requires
// its observation stream — loads with values and outcomes, branches with
// directions, all with cycle stamps, plus whatever the fallback Steps
// observe — to equal the stream the one-step interpreter produces for the
// same program. Every loop-back fold must follow a taken branch at the same
// cycle, and every requested stop must end the batch right after its load.
func TestExecCompiledHookParity(t *testing.T) {
	p := buildProgram(t, richKernel())

	ref, _ := newTestThread(p)
	want := &hookLog{}
	for !ref.Halted() {
		want.observe(ref.Step())
	}

	th, ps := newTestThread(p)
	h := &hookLog{stopEvery: 3}
	hk := h.hooks()
	stops := 0
	for guard := 0; !th.Halted(); guard++ {
		if guard > 1_000_000 {
			t.Fatal("hooked run did not terminate")
		}
		if cb := ps.CompiledAt(th.PC()); cb != nil {
			ex := th.ExecCompiled(cb, math.MaxUint64, math.MaxInt64, hk)
			if h.overruns > 0 {
				t.Fatalf("hooks fired after a requested stop (batch from %#x)", cb.Entry())
			}
			if h.stopAt != 0 {
				if th.PC() != h.stopAt || ex.NeedSlow {
					t.Fatalf("requested stop left pc %#x (NeedSlow %v), want %#x", th.PC(), ex.NeedSlow, h.stopAt)
				}
				h.stopAt = 0
				stops++
			}
			if ex.N > 0 && !ex.NeedSlow {
				continue
			}
		}
		h.observe(th.Step())
	}
	assertSameState(t, th, ref)

	var got []string
	folds := 0
	for i, e := range h.events {
		if !strings.HasPrefix(e, "loop ") {
			got = append(got, e)
			continue
		}
		folds++
		now := strings.TrimPrefix(e, "loop ")
		if i == 0 || !strings.HasPrefix(h.events[i-1], "br ") ||
			!strings.HasSuffix(h.events[i-1], "taken=true "+now) {
			t.Fatalf("fold %q does not follow a taken branch at the same cycle", e)
		}
	}
	if len(got) != len(want.events) {
		t.Fatalf("observation stream lengths diverged: compiled %d, step %d",
			len(got), len(want.events))
	}
	for i := range got {
		if got[i] != want.events[i] {
			t.Fatalf("observation %d diverged:\ncompiled %s\nstep     %s",
				i, got[i], want.events[i])
		}
	}
	if h.loads == 0 || folds == 0 || stops == 0 {
		t.Fatalf("%d load hooks, %d folds, %d requested stops; test is vacuous", h.loads, folds, stops)
	}
}

// TestCompiledMatches pins the content-revalidation predicate: identical
// instructions and weights match; any changed immediate, a different length,
// a changed weight, or nil-versus-present weights do not.
func TestCompiledMatches(t *testing.T) {
	seq := []isa.Inst{
		{Op: isa.ADDI, Rd: 1, Ra: 1, Imm: 4},
		{Op: isa.XOR, Rd: 2, Ra: 2, Rb: 1},
		{Op: isa.BNE, Ra: 1, Imm: isa.BranchDisp(0x2010, 0x2000)},
	}
	b := Block{Insts: seq}
	cb := compileBlock(b, 0x2000)
	if cb == nil {
		t.Fatal("compileBlock refused a well-formed block")
	}
	if !cb.Matches(b) {
		t.Fatal("chain does not match its own source")
	}
	if cb.Matches(Block{Insts: seq[:2]}) {
		t.Fatal("matched a shorter block")
	}
	mut := append([]isa.Inst(nil), seq...)
	mut[0].Imm = 99
	if cb.Matches(Block{Insts: mut}) {
		t.Fatal("matched a block with a changed immediate")
	}

	bw := Block{Insts: seq, Weights: []int{2, 3, 4}}
	cbw := compileBlock(bw, 0x2000)
	if !cbw.Matches(bw) {
		t.Fatal("weighted chain does not match its own source")
	}
	if cbw.Matches(b) || cb.Matches(bw) {
		t.Fatal("nil and present weights must not match")
	}
	w2 := Block{Insts: seq, Weights: []int{2, 3, 5}}
	if cbw.Matches(w2) {
		t.Fatal("matched a block with a changed weight")
	}
}

// TestCompileSharedCache pins the process-wide compile cache: identical
// content at the same entry yields the same chain (including across two
// independent BlockCaches), while a different entry or different content
// never reuses it; malformed blocks are refused, not compiled.
func TestCompileSharedCache(t *testing.T) {
	seq := []isa.Inst{
		{Op: isa.ADDI, Rd: 1, Ra: 1, Imm: 1},
		{Op: isa.ADD, Rd: 2, Ra: 2, Rb: 1},
		{Op: isa.BNE, Ra: 1, Imm: isa.BranchDisp(0x77010, 0x77000)},
	}
	b := Block{Insts: seq}
	cb1 := Compile(b, 0x77000)
	if cb1 == nil {
		t.Fatal("Compile refused a well-formed block")
	}
	if cb2 := Compile(b, 0x77000); cb2 != cb1 {
		t.Fatal("identical content and entry did not hit the shared cache")
	}
	if cb3 := Compile(b, 0x88000); cb3 == cb1 {
		t.Fatal("different entry reused a chain with baked-in addresses")
	}
	mut := append([]isa.Inst(nil), seq...)
	mut[0].Imm = 2
	if cb4 := Compile(Block{Insts: mut}, 0x77000); cb4 == cb1 {
		t.Fatal("different content reused a stale chain")
	}

	// The real path: two independent caches over the same image share one
	// chain (the experiment harness runs the same program through dozens of
	// systems; each must not recompile from scratch).
	c1, c2 := NewBlockCache(0x77000), NewBlockCache(0x77000)
	c1.SetSource(seq, nil)
	c2.SetSource(seq, nil)
	j1, j2 := c1.CompiledAt(0x77000), c2.CompiledAt(0x77000)
	if j1 == nil || j1 != j2 {
		t.Fatalf("independent caches did not share the chain: %p vs %p", j1, j2)
	}

	// Malformed shapes are refused.
	if Compile(Block{}, 0x1000) != nil {
		t.Fatal("compiled an empty block")
	}
	if Compile(Block{Insts: []isa.Inst{{Op: isa.HALT}}}, 0x1000) != nil {
		t.Fatal("compiled a non-member opcode")
	}
	notLast := []isa.Inst{
		{Op: isa.BNE, Ra: 1, Imm: isa.BranchDisp(0x1000, 0x1000)},
		{Op: isa.ADDI, Rd: 1, Ra: 1, Imm: 1},
	}
	if Compile(Block{Insts: notLast}, 0x1000) != nil {
		t.Fatal("compiled a block with a non-final branch")
	}
}

// TestCompiledAtCompilesOnFirstUse pins the lookup: the first CompiledAt
// for a block compiles it, later lookups return the resident chain without
// recompiling, and a word that starts no block yields nil.
func TestCompiledAtCompilesOnFirstUse(t *testing.T) {
	seq := []isa.Inst{
		{Op: isa.ADDI, Rd: 1, Ra: 1, Imm: 1},
		{Op: isa.BNE, Ra: 1, Imm: isa.BranchDisp(0x99008, 0x99000)},
		{Op: isa.HALT},
	}
	c := NewBlockCache(0x99000)
	c.SetSource(seq, nil)
	cb := c.CompiledAt(0x99000)
	if cb == nil || cb.Len() != 2 {
		t.Fatal("first lookup did not compile the block")
	}
	if again := c.CompiledAt(0x99000); again != cb {
		t.Fatal("re-lookup recompiled instead of returning the resident chain")
	}
	if got := c.Stats().Compiles; got != 1 {
		t.Fatalf("Compiles = %d, want 1", got)
	}
	if c.CompiledAt(0x99010) != nil {
		t.Fatal("HALT heads a chain")
	}
}

// TestCompiledPrefix pins the truncated-block path the core takes when a
// block would run past its trace placement: the prefix is its own chain,
// carries the source weights, and retires exactly its own instructions with
// Step's state.
func TestCompiledPrefix(t *testing.T) {
	seq := []isa.Inst{
		{Op: isa.LDI, Rd: 1, Imm: 0x4000},    // 0x1000
		{Op: isa.ST, Ra: 1, Rb: 1, Imm: 0},   // 0x1008
		{Op: isa.ADDI, Rd: 2, Ra: 1, Imm: 3}, // 0x1010
		{Op: isa.XOR, Rd: 3, Ra: 2, Rb: 1},   // 0x1018
		{Op: isa.HALT},                       // 0x1020
	}
	c := NewBlockCache(0x1000)
	c.SetSource(seq, []int{1, 2, 0, 3, 1})
	full := c.CompiledAt(0x1000)
	if full == nil || full.Len() != 4 {
		t.Fatalf("full chain: %v", full)
	}
	pre := full.Prefix(3)
	if pre == nil || pre == full || pre.Len() != 3 || pre.Entry() != 0x1000 {
		t.Fatalf("prefix chain: %v", pre)
	}
	if again := full.Prefix(3); again != pre {
		t.Fatal("prefix did not hit the shared compile cache")
	}

	p := buildProgram(t, seq)
	ref, _ := newTestThread(p)
	for i := 0; i < 3; i++ {
		ref.Step()
	}
	th, _ := newTestThread(p)
	ex := th.ExecCompiled(pre, math.MaxUint64, math.MaxInt64, nil)
	if ex.N != 3 || ex.Weight != 3 || ex.NeedSlow {
		t.Fatalf("prefix run: %+v, want 3 instructions of weight 1+2+0", ex)
	}
	assertSameState(t, th, ref)
}
