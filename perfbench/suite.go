package main

import (
	"fmt"
	"time"

	"tridentsp/internal/core"
	"tridentsp/internal/exp"
	"tridentsp/internal/program"
	"tridentsp/internal/telemetry"
	"tridentsp/internal/workloads"
)

// The layer suite: the traced run's per-layer measurements that do not come
// from the workload's own timed loop. It is the same on every workload. The
// exp.* and sampling.* metrics are the exception: figure-tables and
// sampled-100x report them from their own runs, and the other workloads from
// the short runs here.

const (
	recordInstrs = 1_000_000 // instructions recorded per exact-long input
	stepInstrs   = 2_000_000 // reference-thread steps timed per kernel
	stepBatch    = 100_000
	replayRounds = 5
	suiteChunks  = 6 // fast-engine budget per input, in chunks
	ffwdInstrs   = 10_000_000
	warmInstrs   = 2_000_000
	telemReps    = 5
	telemInstrs  = 6_000_000
	// suiteSampled is the short sampled run for the sampling.* metrics on
	// workloads other than sampled-100x.
	suiteSampledInstrs = 60_000_000
)

// suiteResult is the suite's metrics plus every self-check failure.
type suiteResult struct {
	metrics map[string]float64
	errs    []error
}

func (s *suiteResult) fail(err error) { s.errs = append(s.errs, err) }

func runSuite(e *env, w workload) suiteResult {
	tr := e.tr
	res := suiteResult{metrics: map[string]float64{}}
	m := res.metrics
	root := tr.begin("bench.suite", "suite", -1)
	defer tr.end(root)

	progs := map[string]*program.Program{}
	var buildMs, cloneMs, cloneBytes []float64
	for _, k := range []string{"swim", "mcf", "parser"} {
		build := builders[k]
		for rep := 0; rep < 3; rep++ {
			var master *program.Program
			t0 := time.Now()
			tr.do("workloads.build", k, root, func() {
				master = build(workloads.ScaleFull)
				master.Prebuild()
			})
			buildMs = append(buildMs, ms(time.Since(t0)))
			const clones = 20
			a := readRuntime()
			t0 = time.Now()
			tr.do("program.clone", k, root, func() {
				for i := 0; i < clones; i++ {
					progs[k] = master.ClonePristine()
				}
			})
			cloneMs = append(cloneMs, ms(time.Since(t0))/clones)
			b := readRuntime()
			cloneBytes = append(cloneBytes, float64(b.allocBytes-a.allocBytes)/clones)
		}
	}
	m["workloads.build_ms"] = median(buildMs)
	m["program.clone_ms"] = median(cloneMs)
	m["program.clone_bytes"] = median(cloneBytes)

	var newMs []float64
	for rep := 0; rep < 5; rep++ {
		for _, in := range exactInputs {
			t0 := time.Now()
			tr.do("core.new_system", in.label, root, func() { core.NewSystem(in.config(), progs[in.kernel].ClonePristine()) })
			newMs = append(newMs, ms(time.Since(t0)))
		}
	}
	m["core.new_system_ms"] = median(newMs)

	suiteReplay(&res, progs, tr, root)
	suiteRuns(&res, progs, tr, root)
	suiteFastForward(&res, progs, tr, root)
	suiteTelemetry(&res, progs, tr, root)

	own := w.layer()
	if _, ok := own["exp.fig2_s"]; !ok {
		suiteFigures(&res, e, tr, root)
	}
	if _, ok := own["sampling.chains"]; !ok {
		suiteSampled(&res, e, progs["mcf"], tr, root)
	}
	return res
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// suiteReplay records every exact-long input, self-checks the recording and
// times the per-layer replays.
func suiteReplay(res *suiteResult, progs map[string]*program.Program, tr *tracer, root int) {
	m := res.metrics
	var loadNs, warmNs, dltNs []float64
	var sbTrain, sbLookup, hwTrain, hwLookup []float64
	var fastFrac, missFrac []float64
	var sbSup, sbMiss, hwSup, hwMiss, switches float64
	var dltEvents, dltUpdates int
	for _, in := range exactInputs {
		var rec recording
		tr.do("cpu.record", in.label, root, func() { rec = record(in, progs[in.kernel], recordInstrs) })
		var frac float64
		err := tr.doErr("memsys.replay_check", in.label, root, func() (err error) {
			frac, err = rec.check()
			return err
		})
		if err != nil {
			res.fail(err)
			continue
		}
		fastFrac = append(fastFrac, frac)
		misses := float64(rec.stats.L1Misses())
		missFrac = append(missFrac, misses/float64(max(1, rec.loads)))
		var lts []layerTimes
		for i := 0; i < replayRounds; i++ {
			lts = append(lts, rec.timeLayers(tr, root))
		}
		pick := func(f func(layerTimes) float64) float64 {
			var xs []float64
			for _, lt := range lts {
				xs = append(xs, f(lt))
			}
			return median(xs)
		}
		loadNs = append(loadNs, pick(func(l layerTimes) float64 { return l.load }))
		warmNs = append(warmNs, pick(func(l layerTimes) float64 { return l.warm }))
		dltNs = append(dltNs, pick(func(l layerTimes) float64 { return l.dltUpdate }))
		dltEvents += lts[0].dltEvents
		dltUpdates += lts[0].dltUpdates
		train := pick(func(l layerTimes) float64 { return l.train })
		lookup := pick(func(l layerTimes) float64 { return l.lookup })
		if in.hw.Arsenal() {
			hwTrain = append(hwTrain, train)
			hwLookup = append(hwLookup, lookup)
			hwSup += float64(rec.supplies)
			hwMiss += misses
			switches += float64(rec.switches)
		} else {
			sbTrain = append(sbTrain, train)
			sbLookup = append(sbLookup, lookup)
			sbSup += float64(rec.supplies)
			sbMiss += misses
		}
	}
	m["memsys.load_ns"] = median(loadNs)
	m["memsys.warmload_ns"] = median(warmNs)
	m["memsys.loadfast_accept_frac"] = median(fastFrac)
	m["memsys.l1_miss_frac"] = median(missFrac)
	m["streambuf.train_ns"] = median(sbTrain)
	m["streambuf.lookup_ns"] = median(sbLookup)
	m["streambuf.supply_frac"] = sbSup / max(1, sbMiss)
	m["hwpref.train_ns"] = median(hwTrain)
	m["hwpref.lookup_ns"] = median(hwLookup)
	m["hwpref.supply_frac"] = hwSup / max(1, hwMiss)
	m["hwpref.switches"] = switches
	m["dlt.update_ns"] = median(dltNs)
	m["dlt.event_frac"] = float64(dltEvents) / float64(max(1, dltUpdates))

	var stepTotal time.Duration
	var stepN int
	for _, in := range exactInputs[:3] {
		d, n := timeSteps(in, progs[in.kernel], stepInstrs, stepBatch, tr, root)
		stepTotal += d
		stepN += n
	}
	m["cpu.step_ns_per_instr"] = float64(stepTotal.Nanoseconds()) / float64(max(1, stepN))
}

// suiteRuns runs every exact-long input a short budget on the fast engine,
// checkpointing mid-run: SaveState, RestoreState into a fresh machine, and
// both machines must then finish identically. The runs also supply the
// engine-tier mix and the optimizer counts.
func suiteRuns(res *suiteResult, progs map[string]*program.Program, tr *tracer, root int) {
	m := res.metrics
	var tiers [3]uint64
	var ins, reps, helper, cycles, raised, dropped float64
	var saveMs, restoreMs, bytes []float64
	for _, in := range exactInputs {
		cfg := in.config()
		s := core.NewSystem(cfg, progs[in.kernel].ClonePristine())
		for k := uint64(1); k <= suiteChunks/2; k++ {
			tr.do("core.run_chunk", in.label, root, func() { s.Run(k * chunkInstrs) })
		}
		if !s.Quiesce(10_000_000) {
			res.fail(fmt.Errorf("checkpoint %s: machine did not quiesce", in.label))
			continue
		}
		var blob []byte
		var err error
		for rep := 0; rep < 3; rep++ {
			t0 := time.Now()
			tr.do("checkpoint.save", in.label, root, func() { blob, err = s.SaveState() })
			saveMs = append(saveMs, ms(time.Since(t0)))
			if err != nil {
				break
			}
		}
		if err != nil {
			res.fail(fmt.Errorf("checkpoint %s: save: %w", in.label, err))
			continue
		}
		bytes = append(bytes, float64(len(blob)))
		var restored *core.System
		for rep := 0; rep < 3 && err == nil; rep++ {
			restored = core.NewSystem(cfg, progs[in.kernel].ClonePristine())
			t0 := time.Now()
			tr.do("checkpoint.restore", in.label, root, func() { err = restored.RestoreState(blob) })
			restoreMs = append(restoreMs, ms(time.Since(t0)))
		}
		if err != nil {
			res.fail(fmt.Errorf("checkpoint %s: restore: %w", in.label, err))
			continue
		}
		var r, rr core.Results
		for k := uint64(suiteChunks/2 + 1); k <= suiteChunks; k++ {
			tr.do("core.run_chunk", in.label, root, func() { r = s.Run(k * chunkInstrs) })
			tr.do("core.run_chunk", in.label+"-restored", root, func() { rr = restored.Run(k * chunkInstrs) })
		}
		if r != rr || r.Aborted != "" {
			res.fail(fmt.Errorf("checkpoint %s: restored run diverged from the uninterrupted one", in.label))
		}
		slow, batch, jit := s.TierInstrs()
		tiers[0] += slow
		tiers[1] += batch
		tiers[2] += jit
		ins += float64(r.Insertions)
		reps += float64(r.Repairs)
		helper += float64(r.HelperActiveCycles)
		cycles += float64(r.Cycles)
		raised += float64(r.EventsRaised)
		dropped += float64(r.EventsDropped)
	}
	all := float64(max(1, tiers[0]+tiers[1]+tiers[2]))
	m["core.tier_slow_frac"] = float64(tiers[0]) / all
	m["core.tier_batch_frac"] = float64(tiers[1]) / all
	m["core.tier_jit_frac"] = float64(tiers[2]) / all
	m["prefetch.insertions"] = ins
	m["prefetch.repairs"] = reps
	m["trident.helper_active_frac"] = helper / max(1, cycles)
	m["trident.events_dropped_frac"] = dropped / max(1, raised)
	m["checkpoint.save_ms"] = median(saveMs)
	m["checkpoint.restore_ms"] = median(restoreMs)
	m["checkpoint.bytes"] = median(bytes)
}

// suiteFastForward times System.FastForward on the pointer-chase input,
// purely functional (warm=0) and fully warming (warm=n).
func suiteFastForward(res *suiteResult, progs map[string]*program.Program, tr *tracer, root int) {
	in := exactInputs[1]
	for _, c := range []struct {
		metric  string
		n, warm uint64
	}{{"cpu.ffwd_ns_per_instr", ffwdInstrs, 0}, {"cpu.warm_ns_per_instr", warmInstrs, warmInstrs}} {
		s := core.NewSystem(in.config(), progs[in.kernel].ClonePristine())
		var done uint64
		t0 := time.Now()
		tr.do("core.fast_forward", in.label, root, func() { done = s.FastForward(c.n, c.warm) })
		d := time.Since(t0)
		if done != c.n {
			res.fail(fmt.Errorf("fast-forward %s: %d of %d instructions", in.label, done, c.n))
		}
		res.metrics[c.metric] = float64(d.Nanoseconds()) / float64(max(1, done))
	}
}

// suiteTelemetry runs the pointer-chase input with the simulator's event
// tracer on and off, alternating, and reports the relative slowdown.
func suiteTelemetry(res *suiteResult, progs map[string]*program.Program, tr *tracer, root int) {
	in := exactInputs[1]
	var on, off []float64
	var ron, roff core.Results
	for rep := 0; rep < telemReps; rep++ {
		for _, traced := range []bool{false, true} {
			cfg := in.config()
			if traced {
				cfg.Telemetry = &telemetry.Options{}
			}
			s := core.NewSystem(cfg, progs[in.kernel].ClonePristine())
			var r core.Results
			t0 := time.Now()
			tr.do("core.run_telemetry", in.label, root, func() { r = s.Run(telemInstrs) })
			d := time.Since(t0).Seconds()
			if traced {
				on, ron = append(on, d), r
			} else {
				off, roff = append(off, d), r
			}
		}
	}
	if ron != roff {
		res.fail(fmt.Errorf("telemetry: traced run's results differ from the untraced run's"))
	}
	res.metrics["telemetry.overhead_frac"] = median(on)/median(off) - 1
}

// suiteFigures regenerates fig2/fig5/fig9 at the exp package's quick scale
// and checks each against the reference engine.
func suiteFigures(res *suiteResult, e *env, tr *tracer, root int) {
	failed := 0
	for _, id := range figIDs {
		o := exp.QuickOptions()
		o.Jobs = e.jobs
		var t exp.Table
		var err error
		t0 := time.Now()
		tr.do("exp."+id, id, root, func() { t, err = runFigure(id, o) })
		res.metrics["exp."+id+"_s"] = time.Since(t0).Seconds()
		if err == nil {
			failed += len(t.Failures)
			err = tableHealthy(t)
		}
		if err == nil {
			o.DisableFastPath = true
			var ref exp.Table
			tr.do("reference."+id, id, root, func() { ref, err = runFigure(id, o) })
			if err == nil && ref.Render() != t.Render() {
				err = fmt.Errorf("quick %s differs from the reference engine's", id)
			}
		}
		if err != nil {
			res.fail(err)
		}
	}
	res.metrics["exp.failed_tasks"] = float64(failed)
}

// suiteSampled runs a short sampled run of the pointer-chase kernel and
// checks it against the reference engine.
func suiteSampled(res *suiteResult, e *env, prog *program.Program, tr *tracer, root int) {
	w := &sampledLong{budget: suiteSampledInstrs, prog: prog}
	out, waste, err := w.run(e.jobs, false, tr, root, "suite-sampled")
	if err == nil && out.Total != suiteSampledInstrs {
		err = fmt.Errorf("suite sampled run covered %d of %d instructions", out.Total, suiteSampledInstrs)
	}
	if err == nil {
		var ref sampledOut
		tr.do("reference.sampled", "suite-sampled", root, func() {
			ref, _, err = w.run(e.jobs, true, nil, -1, "suite-sampled-reference")
		})
		if err == nil && ref != out {
			err = fmt.Errorf("suite sampled estimate differs from the reference engine's")
		}
	}
	if err != nil {
		res.fail(err)
		return
	}
	chains := out.Intervals - out.StartupIvs - out.PhaseExtras
	res.metrics["sampling.chains"] = float64(chains)
	res.metrics["sampling.spec_waste_frac"] = float64(waste) / float64(max(1, chains+waste))
}
