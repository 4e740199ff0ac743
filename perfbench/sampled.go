package main

import (
	"fmt"
	"time"

	"tridentsp/internal/core"
	"tridentsp/internal/program"
	"tridentsp/internal/sampling"
	"tridentsp/internal/workloads"
)

// sampled-100x: a 100x budget of the pointer-chase kernel under the
// interval-sampling scheduler with as many window workers as host CPUs and
// no on-disk ROI cache, so every run pays its fast-forward. The cpu and
// memsys layers are reached through their functional and warm entry points
// (FastForward, WarmLoad) instead of timed Load/Step, and checkpoint restore
// plus chain scheduling do most of the work: a detailed-engine speed-up
// should barely move this workload, a fast-forward or restore speed-up
// should.

const sampledKernel = "mcf"

// sampledConfig is the 100x schedule of the sampling package's own 100x
// bench: one 100k-instruction detailed window per 20M of progress after a
// fully detailed 1.5M startup.
var sampledConfig = sampling.Config{
	Interval:   20_000_000,
	Detailed:   100_000,
	Warmup:     50_000,
	PhaseDelta: 0.5,
	Startup:    1_500_000,
}

type sampledLong struct {
	// budget is 100x the exp base budget plus a seed-drawn 0-7M, so seeds
	// cut the run at different points of the kernel's phase cycle.
	budget uint64
	prog   *program.Program
	ref    sampledOut
	last   sampledOut
	chains []float64
	waste  []float64
	runNo  int
}

// sampledOut is the deterministic part of an estimate: everything but the
// jobs-dependent speculation waste and the error-bar map.
type sampledOut struct {
	Sampled, Raw                       core.Results
	Total, DetailedInstrs, FFwdInstrs  uint64
	Intervals, PhaseExtras, StartupIvs int
}

func newSampledLong(seed uint64) *sampledLong {
	return &sampledLong{budget: workloads.LongInstrs(5_000_000) + splitmix64(seed)%8*1_000_000}
}

func (w *sampledLong) name() string   { return "sampled-100x" }
func (w *sampledLong) setupReps() int { return 11 }

// setup builds the kernel and the master system.
func (w *sampledLong) setup(e *env, rep int) error {
	p, err := buildProgram(e.tr, sampledKernel, rep == 0)
	if err != nil {
		return err
	}
	w.prog = p
	e.tr.do("core.new_system", sampledKernel, -1, func() { core.NewSystem(core.DefaultConfig(), p) })
	return nil
}

// run executes one sampled run with the given engine choice.
func (w *sampledLong) run(jobs int, slow bool, tr *tracer, parent int, id string) (out sampledOut, waste int, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("sampled run panicked: %v", p)
		}
	}()
	cfg := core.DefaultConfig()
	cfg.DisableFastPath = slow
	newSys := func() *core.System { return core.NewSystem(cfg, w.prog.ClonePristine()) }
	var master *core.System
	tr.do("core.new_system", id, parent, func() { master = newSys() })
	sched, err := sampling.NewScheduler(master, sampledConfig, nil, sampling.Options{Jobs: jobs, NewSystem: newSys})
	if err != nil {
		return out, 0, err
	}
	var est sampling.Estimate
	tr.do("sampling.run", id, parent, func() { est = sched.Run(w.budget) })
	if err := sched.Err(); err != nil {
		return out, 0, err
	}
	if est.Sampled.Aborted != "" {
		return out, 0, fmt.Errorf("sampled run aborted: %s", est.Sampled.Aborted)
	}
	startup := 0
	for _, iv := range sched.Intervals() {
		if iv.Start < sched.Config().Startup {
			startup++
		}
	}
	return sampledOut{
		Sampled: est.Sampled, Raw: est.Raw,
		Total: est.Total, DetailedInstrs: est.DetailedInstrs, FFwdInstrs: est.FFwdInstrs,
		Intervals: est.Intervals, PhaseExtras: est.PhaseExtras, StartupIvs: startup,
	}, est.SpecWaste, nil
}

func (w *sampledLong) reference(e *env) error {
	ref, err := get(e.refs, fmt.Sprintf("sampled-100x-b%d", w.budget), func() (sampledOut, error) {
		out, _, err := w.run(e.jobs, true, nil, -1, "reference")
		return out, err
	})
	if err == nil && ref.Total != w.budget {
		err = fmt.Errorf("sampled reference covered %d of %d instructions", ref.Total, w.budget)
	}
	w.ref = ref
	return err
}

// pass is one sampled run, the op.
func (w *sampledLong) pass(e *env, tr *tracer, _ time.Time, _ bool) passResult {
	pr := newPassResult(1)
	w.runNo++
	id := fmt.Sprintf("sampled-100x#%d", w.runNo)
	root := tr.begin("bench.pass", id, -1)
	t0 := time.Now()
	out, waste, err := w.run(e.jobs, false, tr, root, id)
	pr.parts[0] = time.Since(t0).Seconds()
	tr.end(root)
	pr.ops = 1
	if err == nil && out != w.ref {
		err = fmt.Errorf("%s: estimate differs from the reference engine's", id)
	}
	if err != nil {
		pr.fail(err)
		return pr
	}
	pr.complete = true
	pr.instrs = out.Total
	w.last = out
	chains := out.Intervals - out.StartupIvs - out.PhaseExtras
	w.chains = append(w.chains, float64(chains))
	w.waste = append(w.waste, float64(waste)/float64(chains+waste))
	return pr
}

func (w *sampledLong) simIPC() float64 { return w.last.Sampled.IPC() }

func (w *sampledLong) details([]passResult) map[string]metricValue {
	return map[string]metricValue{
		"sampled_budget_minstr": {float64(w.budget) / 1e6, "Minstr"},
		"sampled_detailed_frac": {float64(w.last.DetailedInstrs) / float64(max(1, w.last.Total)), "fraction"},
	}
}

// layer reports the sampling.* metrics from this workload's own runs.
func (w *sampledLong) layer() map[string]float64 {
	return map[string]float64{
		"sampling.chains":          median(w.chains),
		"sampling.spec_waste_frac": median(w.waste),
	}
}

// splitmix64 scrambles a seed into a well-mixed word.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}
