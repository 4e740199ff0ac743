package core

import (
	"math"

	"tridentsp/internal/cpu"
	"tridentsp/internal/isa"
	"tridentsp/internal/memsys"
	"tridentsp/internal/telemetry"
	"tridentsp/internal/trident"
)

// This file implements the first level of the simulator's fast path: the
// event horizon. The framework is event-driven — chaos edges, watchdog
// probes, phase-window boundaries, helper-thread completions, and in-flight
// fill arrivals all fire at known future cycles — yet the reference loop
// re-checks every one of them after every committed instruction. fastForward
// instead computes the nearest cycle at which anything non-CPU can happen
// and retires whole compiled superblocks (cpu.BlockCache) up to that
// horizon, running the event machinery once per batch at exactly the
// instruction boundary the one-step loop would have used.
//
// Since the superblock engine, batches carry memory operations and loop
// back-edges too. The core-side monitoring the slow path performs per
// instruction (DLT/VPT updates for in-trace loads, branch profiling in
// original code, traversal timing at trace loop-backs) is mirrored into the
// batch through cpu.SBHooks, each hook a verbatim transliteration of the
// corresponding step() clause. The remaining slow-path set is exactly the
// event-visible instructions: loads the L1-hit probe declines (misses,
// partial hits, MSHR pressure), FDIV, jumps, trace entries and exits,
// patched words, and any instruction whose monitoring raised a helper event
// (the batch stops so the pump dispatches at the same cycle the slow path
// would have).
//
// Equivalence contract (enforced by TestFastPathDifferential): step()
// executes one instruction and then processes whatever became due at the
// post-commit cycle. ExecCompiled stops after the first instruction whose
// commit crosses the horizon or the weight budget — pre-stopping hooked
// instructions that might cross, so a hook never observes an instruction
// past the horizon — and the batch-end processing below observes the same
// cycle, the same origInstrs, and the same machine state as the slow path's
// per-step processing — bit for bit.

// eventHorizon returns the earliest future cycle at which any non-CPU
// machinery can act, given the current cycle. MaxInt64 means "nothing
// scheduled": execution may batch freely until code-driven work (a declined
// load, a trace boundary, a patched word) forces a slow step anyway.
func (s *System) eventHorizon(now int64) int64 {
	hz := int64(math.MaxInt64)
	if s.chaosRun != nil {
		if v := s.chaosRun.NextAt(); v < hz {
			hz = v
		}
	}
	if s.monitor != nil {
		if v := s.monitor.NextAt(); v < hz {
			hz = v
		}
	}
	if s.cfg.Trident {
		if s.apply != nil && s.applyAt < hz {
			hz = s.applyAt
		}
		// The helper completing changes state in three ways: a pending
		// apply fires (capped above), the interference tax toggles off, and
		// a queued event can dispatch. The latter two anchor to BusyUntil.
		bu := s.helper.BusyUntil()
		busy := now < bu
		if (busy || s.interfering || (s.queue.Len() > 0 && s.apply == nil)) && bu < hz {
			hz = bu
		}
	}
	// An in-flight fill arriving re-prices later accesses to its line
	// (partial hit residual → plain hit), so batches never run across a
	// fill-ready boundary; this keeps partial-hit timing exact even though
	// the fast probe itself declines every in-flight line.
	if v := s.hier.EarliestFill(now); v < hz {
		hz = v
	}
	return hz
}

// fastForward retires instructions on the fast path until the next slow-step
// condition: an instruction the compiled chain cannot prove equivalent, a
// trace entry, a patched word, or the instruction budget. Event boundaries
// (the horizon) end a batch but not the fast path — processing runs and
// batching resumes.
func (s *System) fastForward(limit uint64) {
	if s.cfg.DisableFastPath {
		return
	}
	t := s.thread
	// Engine telemetry (path-dependent by nature, so it lives in the engine
	// ring): one FastEnter when the session first batches an instruction, one
	// FastExit with the reason the session handed control back to step().
	// Zero-batch sessions still count toward the exit-reason histogram — they
	// measure how often the fast path is attempted but declines outright.
	var (
		entered     bool
		entryCycle  int64
		entryInstrs uint64
	)
	exit := telemetry.FPNeedSlow
	hz := s.eventHorizon(t.Now())
loop:
	for {
		if t.Halted() {
			exit = telemetry.FPHalted
			break loop
		}
		pc := t.PC()
		var (
			cb      *cpu.CompiledBlock
			inTrace bool
			hooks   *cpu.SBHooks
		)
		if s.cache.Contains(pc) {
			// In-trace batching covers the placement already being
			// traversed, including launches at its head: the loop-back
			// traversal record is deferred (sbHeadPending) until the batch
			// proves the head actually retired. First entries (curPl still
			// elsewhere) carry entry-tracking side effects and stay slow.
			pl := s.curPl
			if pl == nil || pc < pl.Start || pc >= pl.End {
				exit = telemetry.FPTraceEntry
				break loop
			}
			if pc == pl.Start && !s.inTraversal {
				exit = telemetry.FPTraceEntry
				break loop
			}
			if cb = s.cache.CompiledAt(pc); cb == nil {
				exit = telemetry.FPNoBlock
				break loop
			}
			// A block must not run past this placement's end into an
			// adjacently placed trace (possible only if a trace ends in a
			// straight-line instruction, but cheap to guarantee here).
			if maxLen := int((pl.End - pc) / isa.WordSize); cb.Len() > maxLen {
				cb = cb.Prefix(maxLen)
			}
			inTrace = true
			hooks = &s.sbTraceHooks
			s.sbPl, s.sbEntry = pl, pc
			s.sbHeadPending = pc == pl.Start
		} else if s.isPatched(pc) {
			exit = telemetry.FPPatched
			break loop
		} else {
			if cb = s.live.CompiledAt(pc); cb == nil {
				exit = telemetry.FPNoBlock
				break loop
			}
			if s.cfg.Trident {
				hooks = &s.sbOrigHooks
			}
		}

		// Weight budget: stop exactly where the slow loop would — at the
		// instruction that reaches the run limit, or (when phase detection
		// is armed) the one that crosses the phase window.
		budget := limit - s.origInstrs
		if s.cfg.Trident && s.cfg.PhaseClearMature {
			elapsed := s.origInstrs - s.phaseMarkInstrs
			if pb := s.cfg.PhaseWindow - elapsed; elapsed < s.cfg.PhaseWindow && pb < budget {
				budget = pb
			}
		}

		if s.tel != nil && !entered {
			entered = true
			entryCycle = t.Now()
			entryInstrs = s.origInstrs
			s.tel.Emit(telemetry.KindFastEnter, entryCycle, pc, 0, 0, 0)
		}
		ex := t.ExecCompiled(cb, budget, hz, hooks)
		if ex.N == 0 {
			// The first instruction already needs the slow path: nothing
			// committed, nothing to process — including a deferred head
			// record, whose instruction will now retire through step() and
			// be recorded by trackTraversal instead.
			s.sbHeadPending = false
			exit = telemetry.FPFirstSlow
			break loop
		}
		now := t.Now()

		// Batch-end processing: the same due-checks step() runs after every
		// instruction, in the same order. Each is a no-op unless its event
		// actually came due at this boundary.
		if s.chaosRun != nil && now >= s.chaosRun.NextAt() {
			for _, ed := range s.chaosRun.Due(now) {
				s.applyChaosEdge(ed)
			}
		}
		s.origInstrs += ex.Weight
		if s.faultAt != 0 && s.origInstrs >= s.faultAt {
			// Injected fast-path corruption (InjectFastPathFault): perturb
			// one register at a batch boundary, exactly where real decoded-
			// block corruption would surface. One-shot; never serialized, so
			// a sentinel healing replay is clean.
			s.faultAt = 0
			r := isaReg(s.faultReg)
			t.SetReg(r, t.Reg(r)^s.faultMask)
		}
		if inTrace {
			// A batch that launched at the trace head completed the prior
			// traversal with its first instruction (trackTraversal's
			// loop-back arm); folds inside the batch flushed it already.
			s.flushHeadRecord()
		} else if s.curPl != nil {
			// First original-code instruction after a trace exit.
			s.curPl = nil
			s.inTraversal = false
		}
		// Load accounting, deferred from the batch: the slow path counts
		// these per load, but nothing between the loads and this boundary
		// reads them (the phase check below is the first reader).
		s.stats.loadsTotal += uint64(ex.Loads)
		s.stats.missesTotal += uint64(ex.WouldMiss)
		// Tier residency (engine-class): attribute the batch's weight and
		// clock advance to the compiled chains. s.lastNow still holds the
		// pre-batch cycle here.
		s.tiers[tierJIT].instrs += ex.Weight
		if d := now - s.lastNow; d > 0 {
			s.tiers[tierJIT].cycles += uint64(d)
		}
		if s.cfg.Trident {
			if s.cfg.PhaseClearMature &&
				s.origInstrs-s.phaseMarkInstrs >= s.cfg.PhaseWindow {
				s.checkPhase(now)
			}
			s.pump(now)
			busy := s.helper.Busy(now)
			if busy != s.interfering {
				s.interfering = busy
				t.SetInterference(busy)
			}
		}
		s.lastNow = now
		if s.monitor != nil && now >= s.monitor.NextAt() {
			s.monitor.Tick(now)
		}
		if ex.NeedSlow || s.origInstrs >= limit {
			if s.origInstrs >= limit {
				exit = telemetry.FPLimit
			}
			break loop
		}
		hz = s.eventHorizon(now)
	}
	if s.tel != nil {
		s.fpReasons[exit].Inc()
		if entered {
			s.tel.Emit(telemetry.KindFastExit, t.Now(), t.PC(), uint64(entryCycle),
				int64(exit), int64(s.origInstrs-entryInstrs))
		}
	}
}

// initSBHooks binds the batch-observation hooks once at construction (the
// method values allocate).
func (s *System) initSBHooks() {
	s.sbTraceHooks = cpu.SBHooks{
		Load:     s.sbTraceLoad,
		LoopBack: s.sbLoopBack,
	}
	s.sbOrigHooks = cpu.SBHooks{
		Branch: s.sbOrigBranch,
	}
}

// recordTraversal is trackTraversal's loop-back arm, applied at cycle at:
// the traversal that just closed ran from traversalStart to at.
func (s *System) recordTraversal(at int64) {
	pl := s.sbPl
	if we, ok := s.watch.ByID(pl.TraceID); ok {
		we.RecordTraversal(at - s.traversalStart)
	}
	s.stats.traceTraversal++
	s.traversalStart = at
	if s.cfg.Backout {
		if a := s.activity[pl.TraceID]; a != nil {
			a.traversals++
		}
	}
}

// flushHeadRecord issues the traversal record deferred at a head launch.
// The slow path records when the head instruction commits, using the cycle
// of the instruction *before* it (s.lastNow); at flush time s.lastNow still
// holds exactly that pre-batch value.
func (s *System) flushHeadRecord() {
	if !s.sbHeadPending {
		return
	}
	s.sbHeadPending = false
	s.recordTraversal(s.lastNow)
}

// sbLoopBack fires when a batched trace fold is about to re-execute the
// block entry. When the entry is the trace head this is trackTraversal's
// loop-back: the pending head record (if the batch launched at the head)
// flushes first, then the traversal that the branch just closed is recorded
// at the branch's post-commit cycle — the same value the slow path would
// record one step later via lastNow.
func (s *System) sbLoopBack(now int64) {
	if s.sbEntry != s.sbPl.Start {
		return
	}
	s.flushHeadRecord()
	s.recordTraversal(now)
}

// sbTraceLoad is monitorLoad, transliterated for a batched in-trace load.
// It must stop the batch exactly when a helper event was enqueued: the slow
// path's pump would dispatch it at this very cycle, so the batch has to end
// for the batch-end pump to run at the same point. loadsTotal/missesTotal
// are deliberately not counted here — the batch aggregates them (SBExec) and
// the boundary processing adds them before any reader runs.
func (s *System) sbTraceLoad(pc, addr, value uint64, res memsys.Result, now int64) bool {
	pl := s.sbPl
	idx := (pc - pl.Start) / isa.WordSize
	ti := &pl.Trace.Insts[idx]
	if ti.Inserted || ti.OrigPC == 0 {
		return false
	}
	origPC, headPC := ti.OrigPC, pl.Trace.StartPC

	s.stats.loadsInTrace++
	stop := false
	if s.vpt != nil && s.vpt.Update(origPC, value) {
		ev := trident.Event{Kind: trident.EventInvariantLoad, Raised: now, LoadPC: origPC}
		ev.Hot.StartPC = headPC
		if s.queue.Push(ev) {
			stop = true
		}
	}
	if wouldMiss(res) {
		s.stats.missesInTrace++
		if s.opt != nil && s.opt.Covered(headPC, origPC) {
			s.stats.missesCovered++
		}
	}
	// A fast-path load is never an L1 miss, so the DLT sample is always
	// (miss=false, lat=0) — identical to what the slow path would feed it
	// for the same access. The window boundary can still cross the
	// delinquency threshold on earlier misses, so the event path stays.
	if !s.table.UpdateAt(origPC, addr, false, 0, now) {
		return stop
	}
	if s.opt == nil {
		s.table.ClearCounters(origPC)
		return stop
	}
	we, ok := s.watch.ByStart(headPC)
	if !ok || we.OptFlag {
		s.table.ClearCounters(origPC)
		return stop
	}
	ev := trident.Event{
		Kind:    trident.EventDelinquentLoad,
		Raised:  now,
		LoadPC:  origPC,
		TraceID: we.TraceID,
	}
	ev.Hot.StartPC = headPC
	if s.queue.Push(ev) {
		we.OptFlag = true
		return true
	}
	s.table.ClearCounters(origPC)
	return stop
}

// sbOrigBranch is the branch-profiling clause of step(), transliterated for
// a batched original-code conditional branch. The batch launch guarantees
// pc is outside the code cache and outside any placement, which is the slow
// path's profiling precondition. The batch stops when a hot-trace event was
// enqueued, for the same pump-timing reason as sbTraceLoad.
func (s *System) sbOrigBranch(pc uint64, in *isa.Inst, taken bool, now int64) bool {
	target := isa.BranchTarget(pc, *in)
	if hot, fired := s.prof.OnCondBranch(pc, target, taken); fired {
		return s.enqueueHot(hot, now)
	}
	return false
}
