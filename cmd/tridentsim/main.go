// Command tridentsim runs one or more benchmarks on one simulated machine
// and prints their statistics — the single-run counterpart of
// cmd/experiments.
//
// Usage:
//
//	tridentsim -bench mcf                  # self-repairing default machine
//	tridentsim -bench swim -sw off -hw 8x8 # hardware prefetching only
//	tridentsim -bench art -sw basic -hw none -instrs 5000000
//	tridentsim -bench mcf -scale small -v  # verbose: per-outcome breakdown
//	tridentsim -bench mcf -chaos eviction-storm -chaos-seed 7
//	tridentsim -bench swim,mcf,art -j 3    # fan benchmarks across workers
//	tridentsim -bench mcf -checkpoint-every 500000 -checkpoint-dir ckpt
//	tridentsim -bench mcf -restore ckpt/mcf.ckpt   # resume after a crash
//	tridentsim -bench mcf -sentinel                # online divergence check
//	tridentsim -bench mcf -instrs 500000000 -sample -roi-cache roi
//
// With several -bench names the runs execute concurrently (bounded by -j;
// 0 = all CPUs) and the reports print in the order the names were given.
//
// With -chaos, a deterministic fault-injection schedule perturbs each run
// (see internal/chaos for the presets), the invariant watchdog and the
// architectural-transparency shadow run are attached, and the process exits
// non-zero if any run aborts or violates an invariant.
//
// With -checkpoint-every, the (single) run executes in windows and writes a
// crash-safe checkpoint file after each one; -restore resumes from such a
// file and the finished run is bit-identical to one that was never
// interrupted, even if the writing process was SIGKILLed mid-checkpoint.
// The file records the invocation's identity (benchmark, scale, machine and
// chaos configuration — not the instruction budget, which may grow across
// resumes) and refuses to load into a mismatched invocation.
//
// With -sample, the run is interval-sampled (DESIGN §14, §15): detailed
// windows on the full engine alternate with functional fast-forward gaps,
// statistics are extrapolated from the windows with error bars, and
// -roi-cache lets a sweep reuse one run's fast-forward work as on-disk
// region-of-interest checkpoints. -sample-jobs N fans the detailed windows
// across N concurrent worker machines; estimates, error bars, trigger
// decisions, and exported telemetry are byte-identical at every N (only the
// speculation-waste diagnostic on stderr is jobs-dependent). Sampled runs
// compose with -checkpoint-every/-restore (the checkpoint then carries the
// scheduler's schedule state too) but not with -chaos (the shadow machine
// cannot advance across a functional gap) or -sentinel (replay windows
// cannot span one).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"

	"tridentsp/internal/chaos"
	"tridentsp/internal/checkpoint"
	"tridentsp/internal/core"
	"tridentsp/internal/memsys"
	"tridentsp/internal/sampling"
	"tridentsp/internal/telemetry"
	"tridentsp/internal/workloads"
)

func main() {
	defCfg := core.DefaultConfig()
	var (
		bench   = flag.String("bench", "mcf", "comma-separated benchmark names")
		hw      = flag.String("hw", "8x8", "hardware prefetcher: none, 4x4, 8x8, next-line, stride, best-offset, ghb, selector")
		sw      = flag.String("sw", "self-repair", "software prefetching: off, basic, whole-object, self-repair")
		trident = flag.Bool("trident", true, "enable the Trident framework")
		link    = flag.Bool("link", true, "link optimized traces (false = §5.1 overhead mode)")
		backout = flag.Bool("backout", false, "enable under-performing trace back-out")
		valspec = flag.Bool("valspec", false, "enable dynamic value specialization")
		phase   = flag.Bool("phase", false, "enable phase-triggered mature clearing")
		instrs  = flag.Uint64("instrs", 2_000_000, "instruction budget")
		scale   = flag.String("scale", "full", "working-set scale: test, small, full")
		verbose = flag.Bool("v", false, "print the full outcome breakdown")
		preset  = flag.String("chaos", "", "fault-injection preset: "+presetList())
		seed    = flag.Uint64("chaos-seed", 1, "fault-injection schedule seed")
		jobs    = flag.Int("j", 0, "max concurrent benchmark runs (0 = all CPUs)")
		slow    = flag.Bool("slowpath", false, "force the reference one-step simulation loop (disable the compiled superblock engine)")

		hwDegree   = flag.Int("hw-degree", defCfg.HWDegree, "prefetch degree for the arsenal backends (-hw next-line/stride/best-offset/ghb/selector)")
		selProbe   = flag.Uint64("selector-probe", defCfg.SelectorProbe, "committed loads per backend probe epoch (-hw selector)")
		selExploit = flag.Uint64("selector-exploit", defCfg.SelectorExploit, "exploit phase length as a multiple of the probe epoch (-hw selector)")

		sample         = flag.Bool("sample", false, "interval-sampled run: detailed windows + functional fast-forward with live warmup (DESIGN §14)")
		sampleInterval = flag.Uint64("sample-interval", 0, "sampling grid period in original instructions (0 = default)")
		sampleDetailed = flag.Uint64("sample-detailed", 0, "detailed window length in original instructions (0 = default)")
		sampleWarmup   = flag.Uint64("sample-warmup", 0, "warm fast-forward window before each detailed window (0 = default)")
		sampleStartup  = flag.Uint64("sample-startup", 0, "fully detailed startup prefix so the optimizer converges before sampling (0 = default)")
		sampleJobs     = flag.Int("sample-jobs", 1, "concurrent detailed-window chains inside a sampled run (DESIGN §15); estimates are byte-identical at any value")
		roiCache       = flag.String("roi-cache", "", "directory of region-of-interest checkpoints; sampled gaps restore from (or populate) it")

		ckptEvery  = flag.Uint64("checkpoint-every", 0, "write a crash-safe checkpoint every N original instructions (single -bench only; 0 = off)")
		ckptDir    = flag.String("checkpoint-dir", "checkpoints", "directory for checkpoint files")
		restore    = flag.String("restore", "", "resume from this checkpoint file (single -bench only)")
		sentinel   = flag.Bool("sentinel", false, "arm the online divergence sentinel at its default cadence")
		sentEvery  = flag.Uint64("sentinel-every", 0, "open a sentinel window every N original instructions (implies -sentinel)")
		sentWindow = flag.Uint64("sentinel-window", 0, "sentinel window length in original instructions (default: every/4)")

		traceOut   = flag.String("trace-out", "", "write the telemetry event stream as JSONL to this file")
		chromeOut  = flag.String("chrome-out", "", "write the event stream as Chrome trace_event JSON (load in chrome://tracing or Perfetto)")
		metricsOut = flag.String("metrics-out", "", "write the metrics registry as JSON to this file")
		traceRing  = flag.Int("trace-ring", 0, "telemetry ring capacity in events (0 = default)")
	)
	flag.Parse()

	var bms []workloads.Benchmark
	for _, raw := range strings.Split(*bench, ",") {
		name := strings.TrimSpace(raw)
		if name == "" {
			continue
		}
		bm, ok := workloads.ByName(name)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown benchmark %q\n", name)
			os.Exit(1)
		}
		bms = append(bms, bm)
	}
	if len(bms) == 0 {
		fmt.Fprintf(os.Stderr, "-bench %q names no benchmarks\n", *bench)
		os.Exit(1)
	}

	cfg := core.DefaultConfig()
	switch *hw {
	case "none":
		cfg.HW = core.HWNone
	case "4x4":
		cfg.HW = core.HW4x4
	case "8x8":
		cfg.HW = core.HW8x8
	case "next-line":
		cfg.HW = core.HWNextLine
	case "stride":
		cfg.HW = core.HWStride
	case "best-offset":
		cfg.HW = core.HWBestOffset
	case "ghb":
		cfg.HW = core.HWGHB
	case "selector":
		cfg.HW = core.HWSelector
	default:
		fmt.Fprintf(os.Stderr, "unknown hw config %q\n", *hw)
		os.Exit(1)
	}
	cfg.HWDegree = *hwDegree
	cfg.SelectorProbe = *selProbe
	cfg.SelectorExploit = *selExploit
	if !cfg.HW.Arsenal() {
		for _, f := range []string{"hw-degree", "selector-probe", "selector-exploit"} {
			if flagWasSet(f) {
				fmt.Fprintf(os.Stderr, "-%s requires an arsenal backend (-hw next-line/stride/best-offset/ghb/selector)\n", f)
				os.Exit(2)
			}
		}
	}
	switch *sw {
	case "off":
		cfg.SW = core.SWOff
	case "basic":
		cfg.SW = core.SWBasic
	case "whole-object":
		cfg.SW = core.SWWholeObject
	case "self-repair":
		cfg.SW = core.SWSelfRepair
	default:
		fmt.Fprintf(os.Stderr, "unknown sw mode %q\n", *sw)
		os.Exit(1)
	}
	cfg.Trident = *trident
	cfg.LinkTraces = *link
	cfg.DisableFastPath = *slow
	cfg.Backout = *backout
	cfg.ValueSpecialize = *valspec
	cfg.PhaseClearMature = *phase
	if cfg.SW == core.SWOff {
		// Plain baseline unless Trident was explicitly requested.
		cfg.Trident = *trident && flagWasSet("trident")
	}

	var sc workloads.Scale
	switch *scale {
	case "test":
		sc = workloads.ScaleTest
	case "small":
		sc = workloads.ScaleSmall
	case "full":
		sc = workloads.ScaleFull
	default:
		fmt.Fprintf(os.Stderr, "unknown scale %q\n", *scale)
		os.Exit(1)
	}

	// Sentinel cadence: -sentinel-every sets it directly, bare -sentinel
	// picks a default; the window defaults to a quarter of the cadence.
	if *sentEvery == 0 && *sentinel {
		*sentEvery = 200_000
	}
	if *sentEvery == 0 && flagWasSet("sentinel-window") {
		fmt.Fprintf(os.Stderr, "-sentinel-window requires -sentinel or -sentinel-every\n")
		os.Exit(2)
	}
	if *sentEvery > 0 {
		w := *sentWindow
		if w == 0 {
			w = *sentEvery / 4
			if w == 0 {
				w = 1
			}
		}
		cfg.SentinelEvery, cfg.SentinelWindow = *sentEvery, w
	}

	// Chaos configuration is validated up front — a typoed preset should be
	// a usage error, not a mid-run surprise. Horizon in cycles: twice the
	// instruction budget covers the whole run for any IPC above 0.5.
	chaosCfg := chaos.Config{Preset: chaos.Preset(*preset), Seed: *seed, Horizon: int64(*instrs) * 2}
	if err := chaosCfg.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "invalid -chaos/-chaos-seed: %v\nusage: -chaos {%s} [-chaos-seed N]\n", err, presetList())
		os.Exit(2)
	}
	// A Schedule is immutable (each System expands it into a private edge
	// cursor), so one instance is safely shared by every concurrent run.
	sched, err := chaosCfg.Schedule()
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v (presets: %s)\n", err, presetList())
		os.Exit(1)
	}

	if err := cfg.Validate(); err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		os.Exit(1)
	}

	// Sampled-mode flag hygiene: the shaping flags require -sample, and the
	// two run modes whose semantics need every instruction simulated in
	// detail (chaos shadow, divergence sentinel) are rejected up front.
	if !*sample {
		for _, f := range []string{"sample-interval", "sample-detailed", "sample-warmup", "sample-startup", "sample-jobs", "roi-cache"} {
			if flagWasSet(f) {
				fmt.Fprintf(os.Stderr, "-%s requires -sample\n", f)
				os.Exit(2)
			}
		}
	}
	var smpCfg sampling.Config
	if *sample {
		if *preset != "" {
			fmt.Fprintf(os.Stderr, "-sample is incompatible with -chaos: the architectural shadow machine cannot advance across a functional fast-forward gap\n")
			os.Exit(2)
		}
		if *sentinel || *sentEvery > 0 {
			fmt.Fprintf(os.Stderr, "-sample is incompatible with -sentinel: divergence replay windows cannot span a functional fast-forward gap\n")
			os.Exit(2)
		}
		smpCfg = sampling.Config{
			Interval: *sampleInterval,
			Detailed: *sampleDetailed,
			Warmup:   *sampleWarmup,
			Startup:  *sampleStartup,
		}.WithDefaults()
		if err := smpCfg.Validate(); err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			os.Exit(2)
		}
	}

	telemetryOn := *traceOut != "" || *chromeOut != "" || *metricsOut != ""

	// Checkpointed (or resumed) execution: one benchmark, one machine, run
	// in windows with a durable checkpoint after each.
	if *ckptEvery > 0 || *restore != "" {
		if len(bms) != 1 {
			fmt.Fprintf(os.Stderr, "-checkpoint-every/-restore support exactly one -bench (got %d)\n"+
				"usage: tridentsim -bench <name> -checkpoint-every N [-checkpoint-dir D] [-restore F]\n", len(bms))
			os.Exit(2)
		}
		os.Exit(runCheckpointed(bms[0], cfg, sched, sc, ckptOptions{
			every:      *ckptEvery,
			dir:        *ckptDir,
			restore:    *restore,
			instrs:     *instrs,
			scale:      *scale,
			preset:     *preset,
			seed:       *seed,
			verbose:    *verbose,
			telemetry:  telemetryOn,
			ringCap:    *traceRing,
			traceOut:   *traceOut,
			chromeOut:  *chromeOut,
			metricsOut: *metricsOut,
			sample:     *sample,
			smpCfg:     smpCfg,
			sampleJobs: *sampleJobs,
			roiDir:     *roiCache,
		}))
	}

	// Fan the benchmarks across workers; reports print in argument order.
	nj := *jobs
	if nj <= 0 {
		nj = runtime.NumCPU()
	}
	sem := make(chan struct{}, nj)
	type outcome struct {
		report string
		failed bool
		err    error
	}
	multi := len(bms) > 1
	outs := make([]chan outcome, len(bms))
	for i, bm := range bms {
		outs[i] = make(chan outcome, 1)
		i, bm := i, bm
		go func() {
			sem <- struct{}{}
			defer func() { <-sem }()
			ccfg := cfg
			if sched != nil {
				ccfg.Chaos = sched
				ccfg.ChaosShadow = true
			}
			if telemetryOn {
				ccfg.Telemetry = &telemetry.Options{RingCap: *traceRing}
			}
			build := func() *core.System { return core.NewSystem(ccfg, bm.Build(sc)) }
			sys := build()
			var report string
			var failed bool
			events := func() []telemetry.Event { return sys.Telemetry().AllEvents() }
			if *sample {
				var roi *sampling.ROICache
				if *roiCache != "" {
					roi = sampling.NewROICache(*roiCache, bm.Name, *scale, smpCfg)
				}
				schd, cerr := sampling.NewScheduler(sys, smpCfg, roi,
					sampling.Options{Jobs: *sampleJobs, NewSystem: build})
				if cerr != nil {
					outs[i] <- outcome{failed: true, err: cerr}
					return
				}
				est := schd.Run(*instrs)
				if cerr := schd.Err(); cerr != nil {
					outs[i] <- outcome{failed: true, err: cerr}
					return
				}
				report = renderSampled(est, *verbose)
				reportROI(est)
				failed = est.Raw.Aborted != "" || est.Raw.InvariantViolations > 0
				events = schd.Events
			} else {
				res := sys.Run(*instrs)
				report = renderRun(res, *verbose)
				failed = res.Aborted != "" || res.InvariantViolations > 0
			}
			var err error
			if telemetryOn {
				err = exportTelemetry(events(), sys.Telemetry(), bm.Name, multi,
					*traceOut, *chromeOut, *metricsOut)
			}
			outs[i] <- outcome{report: report, failed: failed, err: err}
		}()
	}
	exitCode := 0
	for i := range bms {
		out := <-outs[i]
		fmt.Print(out.report)
		if out.err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", out.err)
			exitCode = 1
		}
		if out.failed {
			exitCode = 2
		}
	}
	os.Exit(exitCode)
}

// ckptOptions carries the checkpoint driver's knobs.
type ckptOptions struct {
	every      uint64 // checkpoint window in original instructions (0 = restore-only)
	dir        string
	restore    string
	instrs     uint64
	scale      string
	preset     string
	seed       uint64
	verbose    bool
	telemetry  bool
	ringCap    int
	traceOut   string
	chromeOut  string
	metricsOut string
	sample     bool
	smpCfg     sampling.Config // effective (defaulted) schedule when sample is set
	sampleJobs int
	roiDir     string
}

// identity is the invocation fingerprint stored in every checkpoint file.
// Everything that shapes the simulation is included — for sampled runs that
// covers the whole schedule, since a resumed scheduler replays the grid the
// checkpoint was cut on. The instruction budget is deliberately excluded so
// a resume may extend the run, and so is -sample-jobs: estimates are
// byte-identical at any parallelism, so a checkpoint cut at one jobs
// setting may legitimately resume under another.
func (o ckptOptions) identity(bm workloads.Benchmark, cfg core.Config) string {
	id := fmt.Sprintf("tridentsim bench=%s scale=%s hw=%s sw=%s trident=%v link=%v "+
		"backout=%v valspec=%v phase=%v slowpath=%v sentinel=%d/%d "+
		"chaos=%s chaos-seed=%d chaos-horizon=%d telemetry=%v",
		bm.Name, o.scale, cfg.HW, cfg.SW, cfg.Trident, cfg.LinkTraces,
		cfg.Backout, cfg.ValueSpecialize, cfg.PhaseClearMature, cfg.DisableFastPath,
		cfg.SentinelEvery, cfg.SentinelWindow,
		o.preset, o.seed, int64(o.instrs)*2, o.telemetry)
	if cfg.HW.Arsenal() {
		// The arsenal knobs shape every prefetch decision, so a resume with
		// a different degree or selector cadence must be refused.
		id += fmt.Sprintf(" hw-degree=%d selector=%d/%d",
			cfg.HWDegree, cfg.SelectorProbe, cfg.SelectorExploit)
	}
	if o.sample {
		id += fmt.Sprintf(" sample=%d/%d/%d/%d/%g", o.smpCfg.Interval,
			o.smpCfg.Detailed, o.smpCfg.Warmup, o.smpCfg.Startup, o.smpCfg.PhaseDelta)
	}
	return id
}

// runCheckpointed executes one benchmark in windows of every instructions,
// writing an atomic checkpoint file after each window; with restore set it
// first loads the machine from that file. Returns the process exit code.
func runCheckpointed(bm workloads.Benchmark, cfg core.Config, sched *chaos.Schedule,
	sc workloads.Scale, o ckptOptions) int {
	if sched != nil {
		cfg.Chaos = sched
		cfg.ChaosShadow = true
	}
	if o.telemetry {
		cfg.Telemetry = &telemetry.Options{RingCap: o.ringCap}
	}
	sys := core.NewSystem(cfg, bm.Build(sc))
	meta := o.identity(bm, cfg)
	if o.sample {
		return runSampledCkpt(bm, sys, cfg, sc, meta, o)
	}

	if o.restore != "" {
		m, payload, err := checkpoint.ReadFile(o.restore)
		if err != nil {
			fmt.Fprintf(os.Stderr, "restore %s: %v\n", o.restore, err)
			return 1
		}
		if m != meta {
			fmt.Fprintf(os.Stderr, "restore %s: checkpoint belongs to a different invocation\n  file: %s\n  this: %s\n",
				o.restore, m, meta)
			return 2
		}
		if err := sys.RestoreState(payload); err != nil {
			fmt.Fprintf(os.Stderr, "restore %s: %v\n", o.restore, err)
			return 1
		}
	}

	path := ""
	if o.every > 0 {
		if err := os.MkdirAll(o.dir, 0o777); err != nil {
			fmt.Fprintf(os.Stderr, "checkpoint dir: %v\n", err)
			return 1
		}
		path = filepath.Join(o.dir, bm.Name+".ckpt")
	}

	var res core.Results
	for {
		next := o.instrs
		if o.every > 0 {
			if n := sys.OrigInstrs() + o.every; n < next {
				next = n
			}
		}
		res = sys.Run(next)
		if res.Aborted != "" || sys.Thread().Halted() || sys.OrigInstrs() >= o.instrs {
			break
		}
		if path == "" {
			continue
		}
		// SaveState needs a quiescent machine (no optimization mid-apply);
		// a handful of reference-loop steps always gets there, and they are
		// bit-identical to the steps an uninterrupted run would take.
		if !sys.Quiesce(10_000_000) {
			fmt.Fprintf(os.Stderr, "warning: machine did not quiesce at %d instructions; checkpoint skipped\n", sys.OrigInstrs())
			continue
		}
		blob, err := sys.SaveState()
		if err != nil {
			fmt.Fprintf(os.Stderr, "warning: checkpoint at %d instructions: %v\n", sys.OrigInstrs(), err)
			continue
		}
		if err := checkpoint.WriteFile(path, meta, blob); err != nil {
			fmt.Fprintf(os.Stderr, "warning: writing %s: %v\n", path, err)
		}
	}

	fmt.Print(renderRun(res, o.verbose))
	code := 0
	if o.telemetry {
		if err := exportTelemetry(sys.Telemetry().AllEvents(), sys.Telemetry(), bm.Name, false,
			o.traceOut, o.chromeOut, o.metricsOut); err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			code = 1
		}
	}
	if res.Aborted != "" || res.InvariantViolations > 0 {
		code = 2
	}
	return code
}

// runSampledCkpt is the checkpointed driver for sampled runs. The scheduler
// fires OnCommit at every snapshot-safe point — each startup window and each
// completed window chain — and the checkpoint payload is the scheduler's own
// state (which embeds the machine snapshot it needs: the full master during
// startup, the startup snapshot plus the committed record afterwards), so a
// resumed run replays the identical schedule, trigger decisions, and even
// speculation waste.
func runSampledCkpt(bm workloads.Benchmark, sys *core.System, cfg core.Config,
	sc workloads.Scale, meta string, o ckptOptions) int {
	var roi *sampling.ROICache
	if o.roiDir != "" {
		roi = sampling.NewROICache(o.roiDir, bm.Name, o.scale, o.smpCfg)
	}

	path := ""
	if o.every > 0 {
		if err := os.MkdirAll(o.dir, 0o777); err != nil {
			fmt.Fprintf(os.Stderr, "checkpoint dir: %v\n", err)
			return 1
		}
		path = filepath.Join(o.dir, bm.Name+".ckpt")
	}

	var schd *sampling.Scheduler
	nextCkpt := uint64(0)
	opts := sampling.Options{
		Jobs:      o.sampleJobs,
		NewSystem: func() *core.System { return core.NewSystem(cfg, bm.Build(sc)) },
	}
	if path != "" {
		opts.OnCommit = func(progress uint64) {
			if progress < nextCkpt {
				return
			}
			e := checkpoint.NewEncoder()
			e.Mark("tridentsim.sampled")
			if err := schd.SaveState(e); err != nil {
				fmt.Fprintf(os.Stderr, "warning: checkpoint at %d instructions: %v\n", progress, err)
				return
			}
			if err := checkpoint.WriteFile(path, meta, e.Bytes()); err != nil {
				fmt.Fprintf(os.Stderr, "warning: writing %s: %v\n", path, err)
				return
			}
			nextCkpt = progress + o.every
		}
	}
	schd, err := sampling.NewScheduler(sys, o.smpCfg, roi, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		return 1
	}

	if o.restore != "" {
		m, payload, err := checkpoint.ReadFile(o.restore)
		if err != nil {
			fmt.Fprintf(os.Stderr, "restore %s: %v\n", o.restore, err)
			return 1
		}
		if m != meta {
			fmt.Fprintf(os.Stderr, "restore %s: checkpoint belongs to a different invocation\n  file: %s\n  this: %s\n",
				o.restore, m, meta)
			return 2
		}
		d := checkpoint.NewDecoder(payload)
		d.Expect("tridentsim.sampled")
		if err := schd.LoadState(d); err != nil {
			fmt.Fprintf(os.Stderr, "restore %s: %v\n", o.restore, err)
			return 1
		}
		if err := d.Finish(); err != nil {
			fmt.Fprintf(os.Stderr, "restore %s: %v\n", o.restore, err)
			return 1
		}
	}
	nextCkpt = sys.Progress() + o.every

	est := schd.Run(o.instrs)
	if err := schd.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "%v\n", err)
		return 1
	}
	fmt.Print(renderSampled(est, o.verbose))
	reportROI(est)
	code := 0
	if o.telemetry {
		if err := exportTelemetry(schd.Events(), sys.Telemetry(), bm.Name, false,
			o.traceOut, o.chromeOut, o.metricsOut); err != nil {
			fmt.Fprintf(os.Stderr, "%v\n", err)
			code = 1
		}
	}
	if est.Raw.Aborted != "" || est.Raw.InvariantViolations > 0 {
		code = 2
	}
	return code
}

// outPath derives the per-benchmark output file: with one benchmark the path
// is used as given; with several, the benchmark name is inserted before the
// extension ("out.jsonl" -> "out.mcf.jsonl") so concurrent runs do not
// clobber one file.
func outPath(path, bench string, multi bool) string {
	if !multi {
		return path
	}
	ext := filepath.Ext(path)
	return strings.TrimSuffix(path, ext) + "." + bench + ext
}

// exportTelemetry writes the requested telemetry artifacts for one run.
// events is the run's stream — the tracer's own for exact runs, the
// scheduler's slot-ordered merge for sampled ones (identical at every
// -sample-jobs). The metrics registry always comes from the master tracer:
// chain workers run on private machines whose registries die with them, a
// documented limitation of sampled-mode -metrics-out.
func exportTelemetry(events []telemetry.Event, tel *telemetry.Tracer, bench string, multi bool,
	traceOut, chromeOut, metricsOut string) error {
	write := func(path string, fn func(w io.Writer) error) error {
		f, err := os.Create(path)
		if err != nil {
			return err
		}
		if err := fn(f); err != nil {
			f.Close()
			return err
		}
		return f.Close()
	}
	if traceOut != "" {
		err := write(outPath(traceOut, bench, multi), func(w io.Writer) error {
			return telemetry.WriteJSONL(w, events)
		})
		if err != nil {
			return fmt.Errorf("writing %s trace: %w", bench, err)
		}
	}
	if chromeOut != "" {
		err := write(outPath(chromeOut, bench, multi), func(w io.Writer) error {
			return telemetry.WriteChromeTrace(w, events)
		})
		if err != nil {
			return fmt.Errorf("writing %s chrome trace: %w", bench, err)
		}
	}
	if metricsOut != "" {
		err := write(outPath(metricsOut, bench, multi), func(w io.Writer) error {
			return tel.Metrics().WriteJSON(w)
		})
		if err != nil {
			return fmt.Errorf("writing %s metrics: %w", bench, err)
		}
	}
	return nil
}

func renderRun(res core.Results, verbose bool) string {
	var sb strings.Builder
	sb.WriteString(res.String())
	if verbose {
		sb.WriteString("outcome breakdown:\n")
		for out := 0; out < memsys.NumOutcomes; out++ {
			pct := 0.0
			if res.Mem.Loads > 0 {
				pct = 100 * float64(res.Mem.ByOutcome[out]) / float64(res.Mem.Loads)
			}
			fmt.Fprintf(&sb, "  %-22s %10d  %6.2f%%\n", memsys.Outcome(out), res.Mem.ByOutcome[out], pct)
		}
		fmt.Fprintf(&sb, "  prefetches: issued=%d redundant=%d dropped=%d wasted=%d\n",
			res.Mem.PrefetchesIssued, res.Mem.PrefetchesRedundant,
			res.Mem.PrefetchesDropped, res.Mem.WastedPrefetches)
		fmt.Fprintf(&sb, "  stream buffers: supplies=%d fills=%d\n", res.SBSupplies, res.SBFills)
		fmt.Fprintf(&sb, "  branch accuracy: %.3f\n", res.BranchAccuracy)
		fmt.Fprintf(&sb, "  events: raised=%d dropped=%d; code cache %d bytes, %d live traces\n",
			res.EventsRaised, res.EventsDropped, res.CodeCacheBytes, res.LiveTraces)
		fmt.Fprintf(&sb, "  extensions: backed-out=%d specialized=%d phase-clears=%d\n",
			res.TracesBackedOut, res.TracesSpecialized, res.PhaseClears)
	}
	return sb.String()
}

// renderSampled prints the extrapolated results of a sampled run followed by
// a sampling summary: how the budget split between detailed and fast-forward
// execution, the interval count, and the estimator's own 95% error bars.
func renderSampled(est sampling.Estimate, verbose bool) string {
	var sb strings.Builder
	sb.WriteString(renderRun(est.Sampled, verbose))
	det, ff := est.DetailedInstrs, est.FFwdInstrs
	pct := 0.0
	if det+ff > 0 {
		pct = 100 * float64(det) / float64(det+ff)
	}
	fmt.Fprintf(&sb, "sampled: %d intervals (%d phase-triggered), %d detailed + %d fast-forward instrs (%.1f%% detailed)\n",
		est.Intervals, est.PhaseExtras, det, ff, pct)
	fmt.Fprintf(&sb, "  95%% error bars: ipc ±%.2f%%  coverage ±%.2f%%  accuracy ±%.2f%%\n",
		100*est.Err["ipc"], 100*est.Err["coverage"], 100*est.Err["accuracy"])
	return sb.String()
}

// reportROI prints region-of-interest cache statistics and speculation
// waste to stderr. They stay out of the stdout report deliberately: a cold
// run (all misses), a warm one (all hits), a resumed one (fewer gaps left),
// and runs at different -sample-jobs (different waste) all produce
// byte-identical simulation reports, and execution logistics must not break
// that diff.
func reportROI(est sampling.Estimate) {
	if est.ROIHits+est.ROIMisses > 0 {
		fmt.Fprintf(os.Stderr, "roi cache: %d hits, %d misses\n", est.ROIHits, est.ROIMisses)
	}
	if est.SpecWaste > 0 {
		fmt.Fprintf(os.Stderr, "speculation: %d windows executed and discarded\n", est.SpecWaste)
	}
}

func presetList() string {
	var names []string
	for _, p := range chaos.Presets() {
		names = append(names, string(p))
	}
	return strings.Join(names, ", ")
}

func flagWasSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}
