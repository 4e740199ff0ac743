package main

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"tridentsp/internal/core"
	"tridentsp/internal/program"
	"tridentsp/internal/workloads"
)

// exact-long: one core.System per input, advanced by System.Run in
// 1M-original-instruction chunks, on one goroutine. The per-instruction
// engine (JIT/batch/slow tiers, memsys, the prefetchers, DLT monitoring)
// dominates; set-up, allocation churn and checkpointing do almost nothing.

const (
	chunkInstrs = 1_000_000
	// exactChunks is each input's budget in chunks: long enough that the
	// repair loop has converged and steady state dominates, short enough
	// that several passes fit in one run.
	exactChunks = 30
)

type exactInput struct {
	label, kernel string
	hw            core.HWPrefetch
}

// exactInputs: a dense-stride loop, a pointer chase and irregular
// low-coverage code on the paper's machine (8x8 stream buffers plus
// self-repair), and the pointer chase again on the hwpref selector so a
// change to the shared prefetch layer shows on both implementations.
var exactInputs = []exactInput{
	{"swim", "swim", core.HW8x8},
	{"mcf", "mcf", core.HW8x8},
	{"parser", "parser", core.HW8x8},
	{"mcf-selector", "mcf", core.HWSelector},
}

func (in exactInput) config() core.Config {
	cfg := core.DefaultConfig()
	cfg.HW = in.hw
	return cfg
}

type exactLong struct {
	rng   *rand.Rand
	progs map[string]*program.Program
	// systems is the next pass's machines, one per input.
	systems []*core.System
	// ref[i][k] is input i's reference Results after chunk k+1.
	ref    [][]core.Results
	passNo int
}

func newExactLong(seed uint64) *exactLong {
	return &exactLong{rng: rand.New(rand.NewSource(int64(seed)))}
}

func (w *exactLong) name() string   { return "exact-long" }
func (w *exactLong) setupReps() int { return 9 }

// setup builds the three programs and the four first systems. Rep 0 goes
// through the workloads package's master cache (populating it, as any user
// of that package does); later reps call the builders directly so every rep
// pays the full build.
func (w *exactLong) setup(e *env, rep int) error {
	progs := map[string]*program.Program{}
	for _, in := range exactInputs {
		if _, ok := progs[in.kernel]; !ok {
			p, err := buildProgram(e.tr, in.kernel, rep == 0)
			if err != nil {
				return err
			}
			progs[in.kernel] = p
		}
	}
	w.progs = progs
	w.systems = w.newSystems(e.tr, -1)
	return nil
}

func (w *exactLong) newSystems(tr *tracer, parent int) []*core.System {
	out := make([]*core.System, len(exactInputs))
	for i, in := range exactInputs {
		in := in
		tr.do("core.new_system", in.label, parent, func() {
			out[i] = core.NewSystem(in.config(), w.progs[in.kernel].ClonePristine())
		})
	}
	return out
}

type exactRef struct {
	Chunks [][]core.Results
}

// reference runs every input on the reference one-step engine and records
// its Results at each chunk boundary; every timed chunk is compared to it.
func (w *exactLong) reference(e *env) error {
	key := fmt.Sprintf("exact-long-c%d-n%d", chunkInstrs, exactChunks)
	ref, err := get(e.refs, key, func() (exactRef, error) {
		r := exactRef{Chunks: make([][]core.Results, len(exactInputs))}
		parallel(e.jobs, len(exactInputs), func(i int) {
			in := exactInputs[i]
			cfg := in.config()
			cfg.DisableFastPath = true
			s := core.NewSystem(cfg, w.progs[in.kernel].ClonePristine())
			for k := 1; k <= exactChunks; k++ {
				r.Chunks[i] = append(r.Chunks[i], s.Run(uint64(k)*chunkInstrs))
			}
		})
		return r, nil
	})
	if err != nil {
		return err
	}
	for i, rs := range ref.Chunks {
		if len(rs) != exactChunks {
			return fmt.Errorf("exact-long reference for %s has %d chunks", exactInputs[i].label, len(rs))
		}
		if last := rs[len(rs)-1]; last.Aborted != "" || last.OrigInstrs < exactChunks*chunkInstrs {
			return fmt.Errorf("exact-long reference for %s stopped early: %q", exactInputs[i].label, last.Aborted)
		}
	}
	w.ref = ref.Chunks
	return nil
}

// pass advances fresh machines for every input through the whole budget.
// Each round runs one chunk of every input, in an order drawn from the
// seed. The pass stops early at the deadline when mayStop is set.
func (w *exactLong) pass(e *env, tr *tracer, deadline time.Time, mayStop bool) passResult {
	pr := newPassResult(len(exactInputs) * exactChunks)
	if w.systems == nil {
		w.systems = w.newSystems(tr, -1)
	}
	systems := w.systems
	w.systems = nil
	w.passNo++
	root := tr.begin("bench.pass", fmt.Sprintf("exact-long#%d", w.passNo), -1)
	defer tr.end(root)
	order := make([]int, len(systems))
	for k := 1; k <= exactChunks; k++ {
		if mayStop && time.Now().After(deadline) {
			return pr
		}
		for i := range order {
			order[i] = i
		}
		w.rng.Shuffle(len(order), func(a, b int) { order[a], order[b] = order[b], order[a] })
		for _, i := range order {
			run := fmt.Sprintf("%s#%d", exactInputs[i].label, w.passNo)
			sp := tr.begin("core.run_chunk", run, root)
			t0 := time.Now()
			r, err := runChunk(systems[i], uint64(k)*chunkInstrs)
			d := time.Since(t0)
			tr.end(sp)
			pr.ops++
			pr.parts[i*exactChunks+k-1] = d.Seconds()
			if err == nil && r != w.ref[i][k-1] {
				err = fmt.Errorf("%s chunk %d: results differ from the reference engine", exactInputs[i].label, k)
			}
			if err != nil {
				pr.fail(err)
				continue
			}
			pr.instrs += r.OrigInstrs - w.ref0(i, k)
		}
	}
	pr.complete = true
	return pr
}

// ref0 is input i's committed count before chunk k.
func (w *exactLong) ref0(i, k int) uint64 {
	if k == 1 {
		return 0
	}
	return w.ref[i][k-2].OrigInstrs
}

// runChunk advances s to limit original instructions, turning a panic into
// an error.
func runChunk(s *core.System, limit uint64) (r core.Results, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("panic: %v", p)
		}
	}()
	r = s.Run(limit)
	if r.Aborted != "" {
		err = fmt.Errorf("aborted: %s", r.Aborted)
	}
	return r, err
}

func (w *exactLong) simIPC() float64 {
	var ipcs []float64
	for _, rs := range w.ref {
		ipcs = append(ipcs, rs[len(rs)-1].IPC())
	}
	return geomean(ipcs)
}

// details reports the chunk latency percentiles (the op is one chunk).
func (w *exactLong) details(passes []passResult) map[string]metricValue {
	var ms []float64
	for _, p := range passes {
		if p.traced {
			continue
		}
		for _, s := range p.parts {
			if !math.IsNaN(s) {
				ms = append(ms, s*1e3)
			}
		}
	}
	out := map[string]metricValue{
		"chunk_ms_p50":        {median(ms), "ms"},
		"chunk_samples":       {float64(len(ms)), "count"},
		"exact_budget_minstr": {float64(exactChunks * chunkInstrs / 1e6), "Minstr"},
	}
	if v, beyond := percentile(ms, 90); beyond >= minBeyond {
		out["chunk_ms_p90"] = metricValue{v, "ms"}
	}
	for i, in := range exactInputs {
		out["sim_ipc."+in.label] = metricValue{w.ref[i][exactChunks-1].IPC(), "instr/cycle"}
	}
	return out
}

func (w *exactLong) layer() map[string]float64 { return nil }

// parallel runs fn(0..n-1) on at most jobs goroutines and waits for all.
func parallel(jobs, n int, fn func(i int)) {
	sem := make(chan struct{}, max(1, jobs))
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			fn(i)
		}(i)
	}
	wg.Wait()
}

// buildProgram builds kernel at full scale. cached goes through the
// workloads package's master cache; otherwise the builder runs directly and
// the result is prepared the way the cache prepares a master.
func buildProgram(tr *tracer, kernel string, cached bool) (*program.Program, error) {
	var p *program.Program
	if cached {
		bm, ok := workloads.ByName(kernel)
		if !ok {
			return nil, fmt.Errorf("unknown kernel %q", kernel)
		}
		tr.do("workloads.build", kernel, -1, func() { p = bm.Build(workloads.ScaleFull) })
		return p, nil
	}
	build, ok := builders[kernel]
	if !ok {
		return nil, fmt.Errorf("unknown kernel %q", kernel)
	}
	var master *program.Program
	tr.do("workloads.build", kernel, -1, func() {
		master = build(workloads.ScaleFull)
		master.Prebuild()
	})
	tr.do("program.clone", kernel, -1, func() { p = master.ClonePristine() })
	return p, nil
}

// builders are the workloads package's kernels, uncached.
var builders = map[string]func(workloads.Scale) *program.Program{
	"applu": workloads.Applu, "art": workloads.Art, "dot": workloads.Dot,
	"equake": workloads.Equake, "facerec": workloads.Facerec, "fma3d": workloads.Fma3d,
	"galgel": workloads.Galgel, "gap": workloads.Gap, "mcf": workloads.Mcf,
	"mgrid": workloads.Mgrid, "parser": workloads.Parser, "swim": workloads.Swim,
	"vis": workloads.Vis, "wupwise": workloads.Wupwise,
}
