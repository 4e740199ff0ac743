package main

import (
	"fmt"
	"time"

	"tridentsp/internal/branchpred"
	"tridentsp/internal/core"
	"tridentsp/internal/cpu"
	"tridentsp/internal/dlt"
	"tridentsp/internal/hwpref"
	"tridentsp/internal/isa"
	"tridentsp/internal/memsys"
	"tridentsp/internal/program"
	"tridentsp/internal/streambuf"
)

// The replay harness. A standalone cpu.Thread (the reference engine, no
// Trident) steps over an exact-long input and records every load, store
// and prefetch it sends to the memory hierarchy, with its cycle. Replaying
// that stream into fresh memsys, streambuf, hwpref and dlt instances times
// each layer in batches — a single call costs tens of nanoseconds, far too
// little to time alone. Replaying into a hierarchy built from the recorded
// configuration must reproduce the recorded memsys.Stats exactly; that is
// the harness's self-check.

const (
	opLoad uint8 = iota
	opStore
	opPrefetch
)

type memOp struct {
	pc, addr uint64
	now      int64
	lat      int64 // loads: recorded latency
	kind     uint8
	l1Miss   bool // loads: recorded outcome
}

type recording struct {
	in    exactInput
	cfg   core.Config
	ops   []memOp
	loads int
	stats memsys.Stats
	// prefetcher activity of the recorded run
	supplies uint64
	switches uint64
}

// newThread builds a standalone reference thread over prog with the
// hierarchy and hardware prefetcher cfg describes.
func newThread(cfg core.Config, prog *program.Program) (*cpu.Thread, *cpu.ProgramSpace, *memsys.Hierarchy, memsys.Prefetcher) {
	hier := memsys.New(cfg.Mem)
	pf := newPrefetcher(cfg, hier)
	if pf != nil {
		hier.SetPrefetcher(pf)
	}
	code := cpu.NewProgramSpace(prog)
	t := cpu.New(cfg.CPU, code, prog.Entry, program.NewMemory(prog), hier,
		branchpred.New(branchpred.DefaultConfig()))
	return t, code, hier, pf
}

// newPrefetcher builds the hardware prefetcher of an exact-long input's
// configuration the way the core does: 8x8 stream buffers, or the hwpref
// selector over the whole arsenal.
func newPrefetcher(cfg core.Config, port interface {
	StartFill(lineAddr uint64, now int64) (int64, bool)
}) memsys.Prefetcher {
	switch cfg.HW {
	case core.HW8x8:
		sc := streambuf.DefaultConfig()
		sc.LineSize = cfg.Mem.LineSize
		return streambuf.New(sc, port)
	case core.HWSelector:
		pc := hwpref.DefaultConfig()
		pc.LineSize = cfg.Mem.LineSize
		pc.Degree = cfg.HWDegree
		sc := hwpref.SelectorConfig{ProbeLoads: cfg.SelectorProbe, ExploitFactor: cfg.SelectorExploit}
		return hwpref.New(pc, sc, port, hwpref.Arsenal(pc)...)
	}
	return nil
}

// record steps a reference thread n instructions over prog and captures its
// memory-op stream.
func record(in exactInput, prog *program.Program, n int) recording {
	cfg := in.config()
	t, code, hier, pf := newThread(cfg, prog)
	rec := recording{in: in, cfg: cfg}
	for i := 0; i < n && !t.Halted(); i++ {
		inst, ok := code.Fetch(t.PC())
		op := memOp{pc: t.PC(), now: t.Now()}
		mem := ok
		if ok {
			op.addr = t.Reg(inst.Ra) + uint64(inst.Imm)
			switch inst.Op {
			case isa.LD:
				op.kind = opLoad
			case isa.ST:
				op.kind = opStore
			case isa.LDNF, isa.PREFETCH:
				op.kind = opPrefetch
			default:
				mem = false
			}
		}
		info := t.Step()
		if !mem {
			continue
		}
		if op.kind == opLoad {
			op.l1Miss = info.LoadRes.L1Miss
			op.lat = info.LoadRes.Latency
			rec.loads++
		}
		rec.ops = append(rec.ops, op)
	}
	rec.stats = hier.Stats
	rec.supplies, rec.switches = prefetcherCounts(pf)
	return rec
}

func prefetcherCounts(pf memsys.Prefetcher) (supplies, switches uint64) {
	switch p := pf.(type) {
	case *streambuf.StreamBuffers:
		return p.Stats.Supplies, 0
	case *hwpref.Selector:
		return p.TotalStats().Supplies, p.Switches()
	}
	return 0, 0
}

// replayHier replays the stream into h; fast routes loads through LoadFast
// first. Returns how many loads LoadFast accepted.
func (r *recording) replayHier(h *memsys.Hierarchy, fast bool) int {
	accepted := 0
	for i := range r.ops {
		op := &r.ops[i]
		switch op.kind {
		case opLoad:
			if fast {
				if _, ok := h.LoadFast(op.pc, op.addr, op.now); ok {
					accepted++
					continue
				}
			}
			h.Load(op.pc, op.addr, op.now)
		case opStore:
			h.Store(op.addr, op.now)
		case opPrefetch:
			h.Prefetch(op.addr, op.now)
		}
	}
	return accepted
}

// check replays the stream into a hierarchy with the recorded configuration
// — once through Load, once through LoadFast first — and demands the
// recorded statistics back exactly, prefetcher counters included.
func (r *recording) check() (fastFrac float64, err error) {
	for _, fast := range []bool{false, true} {
		h := memsys.New(r.cfg.Mem)
		pf := newPrefetcher(r.cfg, h)
		if pf != nil {
			h.SetPrefetcher(pf)
		}
		acc := r.replayHier(h, fast)
		if h.Stats != r.stats {
			return 0, fmt.Errorf("replay of %s (loadfast=%v): memsys.Stats differ from the recording", r.in.label, fast)
		}
		if s, w := prefetcherCounts(pf); s != r.supplies || w != r.switches {
			return 0, fmt.Errorf("replay of %s (loadfast=%v): prefetcher supplies/switches %d/%d, recorded %d/%d",
				r.in.label, fast, s, w, r.supplies, r.switches)
		}
		if fast {
			fastFrac = float64(acc) / float64(max(1, r.loads))
		}
	}
	return fastFrac, nil
}

// fixedPort accepts every fill at a fixed latency, isolating a prefetcher's
// own cost from the hierarchy behind it.
type fixedPort struct{ lat int64 }

func (p fixedPort) StartFill(_ uint64, now int64) (int64, bool) { return now + p.lat, true }

// layerTimes are one replay round's batch times in nanoseconds per call.
type layerTimes struct {
	load, warm, train, lookup, dltUpdate float64
	dltEvents, dltUpdates                int
}

// timeLayers replays the stream once into each layer and times each batch.
func (r *recording) timeLayers(tr *tracer, parent int) layerTimes {
	var lt layerTimes
	run := r.in.label
	ops := float64(max(1, len(r.ops)))
	loads := float64(max(1, r.loads))

	h := memsys.New(r.cfg.Mem)
	tr.do("memsys.replay", run, parent, func() {
		t0 := time.Now()
		r.replayHier(h, false)
		lt.load = float64(time.Since(t0).Nanoseconds()) / ops
	})

	h = memsys.New(r.cfg.Mem)
	if pf := newPrefetcher(r.cfg, h); pf != nil {
		h.SetPrefetcher(pf)
	}
	tr.do("memsys.replay_warm", run, parent, func() {
		t0 := time.Now()
		for i := range r.ops {
			op := &r.ops[i]
			switch op.kind {
			case opLoad:
				h.WarmLoad(op.pc, op.addr, op.now)
			case opStore:
				h.WarmStore(op.addr)
			case opPrefetch:
				h.WarmPrefetch(op.addr)
			}
		}
		lt.warm = float64(time.Since(t0).Nanoseconds()) / ops
	})

	// The prefetcher: train on every load, then probe the lines of the
	// recorded L1 misses against the trained state.
	pf := newPrefetcher(r.cfg, fixedPort{r.cfg.Mem.MemLatency})
	if pf != nil {
		name := prefetcherLayer(r.cfg)
		misses := 0
		tr.do(name+".replay_train", run, parent, func() {
			t0 := time.Now()
			for i := range r.ops {
				if op := &r.ops[i]; op.kind == opLoad {
					pf.Train(op.pc, op.addr, op.now, op.l1Miss)
				}
			}
			lt.train = float64(time.Since(t0).Nanoseconds()) / loads
		})
		shift := lineShift(r.cfg.Mem.LineSize)
		tr.do(name+".replay_lookup", run, parent, func() {
			t0 := time.Now()
			for i := range r.ops {
				if op := &r.ops[i]; op.kind == opLoad && op.l1Miss {
					pf.Lookup(op.addr>>shift, op.now)
					misses++
				}
			}
			lt.lookup = float64(time.Since(t0).Nanoseconds()) / float64(max(1, misses))
		})
	}

	// The DLT sees every load here (in the machine it monitors in-trace
	// loads only); a raised event is cleared the way a suppressed event is.
	table := dlt.New(dlt.DefaultConfig())
	tr.do("dlt.replay", run, parent, func() {
		t0 := time.Now()
		for i := range r.ops {
			op := &r.ops[i]
			if op.kind != opLoad {
				continue
			}
			var lat int64
			if op.l1Miss {
				lat = op.lat
			}
			lt.dltUpdates++
			if table.UpdateAt(op.pc, op.addr, op.l1Miss, lat, op.now) {
				lt.dltEvents++
				table.ClearCounters(op.pc)
			}
		}
		lt.dltUpdate = float64(time.Since(t0).Nanoseconds()) / float64(max(1, lt.dltUpdates))
	})
	return lt
}

func prefetcherLayer(cfg core.Config) string {
	if cfg.HW.Arsenal() {
		return "hwpref"
	}
	return "streambuf"
}

func lineShift(lineSize int) uint {
	s := uint(0)
	for 1<<s < lineSize {
		s++
	}
	return s
}

// timeSteps steps a fresh reference thread n instructions in batches and
// returns the total time.
func timeSteps(in exactInput, prog *program.Program, n, batch int, tr *tracer, parent int) (time.Duration, int) {
	t, _, _, _ := newThread(in.config(), prog)
	var total time.Duration
	done := 0
	for done < n && !t.Halted() {
		m := min(batch, n-done)
		sp := tr.begin("cpu.step_batch", in.label, parent)
		t0 := time.Now()
		for i := 0; i < m; i++ {
			t.Step()
		}
		total += time.Since(t0)
		tr.end(sp)
		done += m
	}
	return total, done
}
