// Command perfbench is the repository's benchmark. It runs one workload of
// the simulator for a fixed time, checks every simulated output against the
// reference one-step engine, and prints every metric by name with its unit.
// The last line of standard output is the result record:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones (BENCHMARK.json
// end_to_end); with -trace 1 they are the per-layer ones (per_layer), and
// spans recorded around the benchmark's own calls into each layer are
// written to the output directory. Run it through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload exact-long --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"time"
)

// workload is one benchmark workload.
type workload interface {
	name() string
	// setupReps is how many times set-up runs; setup_s is their median.
	setupReps() int
	// setup does one set-up repetition: program builds plus the first
	// systems. The last repetition's state is what the timed loop uses.
	setup(e *env, rep int) error
	// reference computes the reference engine's outputs every timed op is
	// checked against. Runs outside the timed region and outside setup_s.
	reference(e *env) error
	// pass runs one pass of timed ops. tr is nil on untraced passes. A pass
	// may end early at deadline when mayStop is set.
	pass(e *env, tr *tracer, deadline time.Time, mayStop bool) passResult
	// simIPC is the checked outputs' simulated IPC.
	simIPC() float64
	// details are workload-specific metrics for the detail record.
	details(passes []passResult) map[string]metricValue
	// layer returns the per-layer metrics the workload's own passes supply.
	layer() map[string]float64
}

func newWorkload(name string, seed uint64) (workload, bool) {
	switch name {
	case "exact-long":
		return newExactLong(seed), true
	case "figure-tables":
		return newFigureTables(seed), true
	case "sampled-100x":
		return newSampledLong(seed), true
	}
	return nil, false
}

// env is one invocation's settings.
type env struct {
	seed    uint64
	seconds float64
	trace   bool
	jobs    int
	refs    *refCache
	out     string  // spans and the reference cache go here
	tr      *tracer // set in traced invocations; nil records nothing
}

// passResult is one pass's measurements. A pass is a fixed sequence of
// timed parts (exact-long: each input's chunks; figure-tables: each figure;
// sampled-100x: the run); parts[j] is part j's host seconds, NaN if it did
// not run.
type passResult struct {
	parts    []float64
	instrs   uint64 // simulated original instructions of checked ops
	ops      int
	failed   int
	complete bool
	traced   bool
	peakRSS  float64 // bytes, largest resident set sampled during the pass
	errs     []string
}

func newPassResult(parts int) passResult {
	p := passResult{parts: make([]float64, parts)}
	for i := range p.parts {
		p.parts[i] = math.NaN()
	}
	return p
}

func (p passResult) dur() float64 {
	var s float64
	for _, x := range p.parts {
		if !math.IsNaN(x) {
			s += x
		}
	}
	return s
}

// fail counts a failed op. Only the first few messages are kept.
func (p *passResult) fail(err error) {
	p.failed++
	if len(p.errs) < 5 {
		p.errs = append(p.errs, err.Error())
	}
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload: exact-long, figure-tables or sampled-100x")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 20, "seconds the timed loop runs")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer invocation")
	out := flag.String("out", ".bench_build", "directory for spans and the reference cache")
	flag.Parse()
	w, ok := newWorkload(*name, *seed)
	if !ok || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload exact-long|figure-tables|sampled-100x, -trace 0|1, -seconds > 0")
		return 2
	}
	exeHash, err := exeSHA256()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	e := &env{
		seed:    *seed,
		seconds: *seconds,
		trace:   *trace == 1,
		jobs:    runtime.NumCPU(),
		out:     *out,
		refs:    newRefCache(*out, exeHash),
	}
	if e.trace {
		e.tr = newTracer()
	}
	fp := hostFingerprint(*seed, exeHash)

	var setups []float64
	for rep := 0; rep < w.setupReps(); rep++ {
		t0 := time.Now()
		if err := w.setup(e, rep); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: set-up:", err)
			return 1
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	t0 := time.Now()
	if err := e.tr.doErr("reference."+w.name(), w.name(), -1, func() error { return w.reference(e) }); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: reference:", err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: set-up %.3fs, reference %.1fs\n",
		w.name(), *seed, median(setups), time.Since(t0).Seconds())

	// Leave the timed region a clean heap and resident set.
	runtime.GC()
	debug.FreeOSMemory()
	rss := startRSS(20 * time.Millisecond)
	rt0 := readRuntime()
	passes := timedLoop(e, w, rss)
	rt1 := readRuntime()
	rss.stop()

	var attempted, failed int
	var instrs uint64
	var errs []string
	for _, p := range passes {
		attempted += p.ops
		failed += p.failed
		instrs += p.instrs
		errs = append(errs, p.errs...)
	}
	e2e := endToEnd(passes, false)
	e2e["setup_s"] = median(setups)
	e2e["sim_ipc"] = w.simIPC()

	detail := map[string]any{
		"record":      "detail",
		"workload":    w.name(),
		"seed":        *seed,
		"seconds":     *seconds,
		"trace":       *trace,
		"fingerprint": fp,
		"passes":      len(passes),
		"note":        "sim_* are simulated-machine outputs; all else is host time or resources. The model is unvalidated against real hardware.",
	}
	var passLog []map[string]any
	for _, p := range passes {
		passLog = append(passLog, map[string]any{"s": p.dur(), "traced": p.traced, "complete": p.complete, "ops": p.ops})
	}
	detail["pass_log"] = passLog
	metrics := map[string]metricValue{}
	for _, d := range e2eMetrics {
		metrics[d.Name] = metricValue{e2e[d.Name], d.Unit}
	}
	for k, v := range w.details(passes) {
		metrics[k] = v
	}
	// Zero on correct code, so it cannot carry a relative bound; the result
	// record's attempted and failed counts carry it to the gate.
	metrics["error_rate"] = metricValue{float64(failed) / float64(max(1, attempted)), "fraction"}
	detail["metrics"] = metrics

	correct := failed == 0
	final := map[string]metricValue{}
	if !e.trace {
		for _, d := range e2eMetrics {
			final[d.Name] = metrics[d.Name]
		}
	} else {
		layer, checkErrs := tracedMetrics(e, w, passes, rt0, rt1, instrs, detail)
		for _, err := range checkErrs {
			correct = false
			errs = append(errs, err.Error())
		}
		for _, d := range layerMetrics {
			v, ok := layer[d.Name]
			if !ok {
				correct = false
				errs = append(errs, "per-layer metric "+d.Name+" was not measured")
			}
			final[d.Name] = metricValue{v, d.Unit}
		}
	}
	for k, v := range final {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			correct = false
			errs = append(errs, "metric "+k+" is not a number")
			final[k] = metricValue{0, v.Unit}
		}
	}
	if len(errs) > 0 {
		detail["errors"] = errs
		for _, s := range errs {
			fmt.Fprintln(os.Stderr, "perfbench: FAILED:", s)
		}
	}
	printJSON(sanitize(detail))
	printJSON(map[string]any{
		"correct":   correct,
		"attempted": max(1, attempted),
		"failed":    failed,
		"metrics":   final,
	})
	return 0
}

// timedLoop runs passes until the deadline. Traced invocations alternate
// untraced and traced passes so both halves see the same host conditions;
// either kind may stop early only once it has one complete pass.
func timedLoop(e *env, w workload, rss *rssSampler) []passResult {
	deadline := time.Now().Add(time.Duration(e.seconds * float64(time.Second)))
	var passes []passResult
	complete := map[bool]bool{}
	for i := 0; ; i++ {
		traced := e.trace && i%2 == 1
		need := !complete[false] || (e.trace && !complete[true])
		if time.Now().After(deadline) && !need {
			break
		}
		var tr *tracer
		if traced {
			tr = e.tr
		}
		p := w.pass(e, tr, deadline, complete[traced])
		p.traced = traced
		p.peakRSS = float64(rss.take())
		complete[traced] = complete[traced] || p.complete
		passes = append(passes, p)
	}
	return passes
}

// endToEnd computes the pass-based end-to-end metrics over the untraced
// (or, with traced set, the traced) complete, clean passes. wall_s sums the
// median of each part across passes: every part's median is robust to a
// host hiccup in one pass, where the median of whole-pass times has only a
// handful of samples to choose from.
func endToEnd(passes []passResult, traced bool) map[string]float64 {
	var use []passResult
	var instrs, peaks []float64
	for _, p := range passes {
		if p.traced == traced && p.complete && p.failed == 0 {
			use = append(use, p)
			instrs = append(instrs, float64(p.instrs))
			peaks = append(peaks, p.peakRSS/1e6)
		}
	}
	wall := math.NaN()
	if len(use) > 0 {
		wall = 0
		for j := range use[0].parts {
			var xs []float64
			for _, p := range use {
				xs = append(xs, p.parts[j])
			}
			wall += median(xs)
		}
	}
	return map[string]float64{
		"wall_s":            wall,
		"sim_minstrs_per_s": median(instrs) / wall / 1e6,
		"peak_rss_mb":       median(peaks),
	}
}

// tracedMetrics gathers the per-layer metrics: the runtime figures of the
// timed loop, the workload's own layers, the layer suite, the span file,
// per-layer self times and the tracing overhead.
func tracedMetrics(e *env, w workload, passes []passResult, rt0, rt1 rtSnap, instrs uint64, detail map[string]any) (map[string]float64, []error) {
	layer := runtimeMetrics(rt0, rt1, max(1, instrs))
	for k, v := range w.layer() {
		layer[k] = v
	}
	suite := runSuite(e, w)
	for k, v := range suite.metrics {
		if _, own := layer[k]; !own {
			layer[k] = v
		}
	}
	errs := suite.errs

	untraced, traced := endToEnd(passes, false), endToEnd(passes, true)
	overhead := map[string]float64{}
	for k, u := range untraced {
		overhead[k] = traced[k] - u
	}
	layer["bench.span_overhead_frac"] = traced["wall_s"]/untraced["wall_s"] - 1
	detail["trace_overhead"] = map[string]any{
		"traced":                traced,
		"untraced":              untraced,
		"traced_minus_untraced": overhead,
	}

	spans := e.tr.snapshot()
	path, err := writeSpans(filepath.Join(e.out, "spans"),
		fmt.Sprintf("%s-seed%d.json", w.name(), e.seed), spans)
	if err != nil {
		errs = append(errs, err)
	}
	detail["spans_file"] = path
	detail["spans"] = len(spans)
	detail["self_s_by_layer"] = selfBy(spans, span.layer)
	detail["self_s_by_span"] = selfBy(spans, func(s span) string { return s.Name })
	var targets []string
	for _, d := range layerMetrics {
		targets = append(targets, fmt.Sprintf("%s moves %s; should not move %s", d.Name, d.Moves, d.Still))
	}
	detail["layer_targets"] = targets
	return layer, errs
}

// sanitize replaces non-finite floats (which JSON cannot carry) with null.
func sanitize(v any) any {
	switch x := v.(type) {
	case float64:
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return nil
		}
		return x
	case map[string]any:
		out := map[string]any{}
		for k, v := range x {
			out[k] = sanitize(v)
		}
		return out
	case map[string]float64:
		out := map[string]any{}
		for k, v := range x {
			out[k] = sanitize(v)
		}
		return out
	case map[string]metricValue:
		out := map[string]any{}
		for k, v := range x {
			out[k] = map[string]any{"value": sanitize(v.Value), "unit": v.Unit}
		}
		return out
	}
	return v
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		// Only a bug can get here: every value is sanitized.
		panic("perfbench: encode result: " + err.Error())
	}
	fmt.Println(string(b))
}
