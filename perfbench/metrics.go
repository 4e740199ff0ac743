package main

// The metric registry. BENCHMARK.json lists the same names, units and
// directions (TestBenchmarkJSON keeps the two in step); the fields that file
// has no room for — what each per-layer metric should move, on which
// workload — live here and are printed in every detail record.
//
// Naming: sim_* is output of the modelled machine (simulated time, exact and
// deterministic); every other number is host time or host resources. The
// model is unvalidated against real hardware: the paper's reported figures
// are its only reference, and this benchmark does not compare against them.

type e2eDef struct {
	Name, Unit, Better string
	// Bound is the share of the parent's median by which the metric may get
	// worse before a change counts as a regression.
	Bound float64
}

// e2eMetrics are reported by every workload with tracing off. The host-time
// bounds are the 0.25 maximum because the 2-CPU host the benchmark was
// defined on is noisy: run medians of one binary spread 10-15% (quartile
// distance over median, ten seeds). sim_ipc is exact, so its bound only has
// to admit nothing.
var e2eMetrics = []e2eDef{
	// Program builds plus the first systems, before the first timed op;
	// median of several set-ups in one run.
	{"setup_s", "s", "lower", 0.25},
	// Host seconds of one pass (exact-long: the four inputs over their
	// budget; figure-tables: fig2+fig5+fig9; sampled-100x: one sampled run),
	// as the sum over the pass's parts of each part's median across passes.
	{"wall_s", "s", "lower", 0.25},
	// Simulated original instructions (detailed plus fast-forwarded) of one
	// pass over wall_s.
	{"sim_minstrs_per_s", "Minstr/s", "higher", 0.25},
	// Median over passes of the largest resident set sampled in the pass.
	{"peak_rss_mb", "MB", "lower", 0.25},
	// Simulated IPC: exact-long's geomean over its inputs, figure-tables'
	// fig2 average 8x8 IPC, sampled-100x's extrapolated estimate.
	{"sim_ipc", "instr/cycle", "higher", 0.01},
}

type layerDef struct {
	Name, Unit, Better string
	// Moves names the end-to-end metric and workload a change to this layer
	// should move; Still names what it should leave alone.
	Moves, Still string
}

// layerMetrics are reported by every workload with tracing on.
var layerMetrics = []layerDef{
	{"cpu.step_ns_per_instr", "ns", "lower", "sim_minstrs_per_s on exact-long (parser most)", "-"},
	{"cpu.ffwd_ns_per_instr", "ns", "lower", "wall_s on sampled-100x", "exact-long"},
	{"cpu.warm_ns_per_instr", "ns", "lower", "wall_s on sampled-100x", "exact-long"},
	{"core.tier_slow_frac", "fraction", "lower", "exact-long", "-"},
	{"core.tier_batch_frac", "fraction", "lower", "exact-long", "-"},
	{"core.tier_jit_frac", "fraction", "higher", "exact-long", "-"},
	{"core.new_system_ms", "ms", "lower", "setup_s; wall_s on figure-tables", "exact-long"},
	{"memsys.load_ns", "ns", "lower", "exact-long; figure-tables", "-"},
	{"memsys.warmload_ns", "ns", "lower", "wall_s on sampled-100x", "-"},
	{"memsys.loadfast_accept_frac", "fraction", "higher", "exact-long; figure-tables", "-"},
	{"memsys.l1_miss_frac", "fraction", "lower", "simulated behaviour; repeats exactly", "-"},
	{"streambuf.train_ns", "ns", "lower", "exact-long (8x8 inputs); figure-tables", "hwpref input"},
	{"streambuf.lookup_ns", "ns", "lower", "exact-long (8x8 inputs); figure-tables", "hwpref input"},
	{"streambuf.supply_frac", "fraction", "higher", "simulated behaviour; repeats exactly", "-"},
	{"hwpref.train_ns", "ns", "lower", "exact-long (selector input)", "figure-tables"},
	{"hwpref.lookup_ns", "ns", "lower", "exact-long (selector input)", "figure-tables"},
	{"hwpref.supply_frac", "fraction", "higher", "simulated behaviour; repeats exactly", "-"},
	{"hwpref.switches", "count", "lower", "simulated behaviour; repeats exactly", "-"},
	{"dlt.update_ns", "ns", "lower", "exact-long; figure-tables", "-"},
	{"dlt.event_frac", "fraction", "lower", "simulated behaviour; repeats exactly", "-"},
	{"prefetch.insertions", "count", "higher", "count; must repeat exactly on a perf-only change", "-"},
	{"prefetch.repairs", "count", "higher", "count; must repeat exactly on a perf-only change", "-"},
	{"trident.helper_active_frac", "fraction", "lower", "count; must repeat exactly on a perf-only change", "-"},
	{"trident.events_dropped_frac", "fraction", "lower", "count; must repeat exactly on a perf-only change", "-"},
	{"checkpoint.save_ms", "ms", "lower", "wall_s on sampled-100x", "exact-long"},
	{"checkpoint.restore_ms", "ms", "lower", "wall_s on sampled-100x", "exact-long"},
	{"checkpoint.bytes", "bytes", "lower", "wall_s on sampled-100x", "exact-long"},
	{"sampling.spec_waste_frac", "fraction", "lower", "wall_s on sampled-100x", "other workloads"},
	{"sampling.chains", "count", "lower", "wall_s on sampled-100x", "other workloads"},
	{"exp.fig2_s", "s", "lower", "wall_s on figure-tables", "other workloads"},
	{"exp.fig5_s", "s", "lower", "wall_s on figure-tables", "other workloads"},
	{"exp.fig9_s", "s", "lower", "wall_s on figure-tables", "other workloads"},
	{"exp.failed_tasks", "count", "lower", "wall_s on figure-tables", "other workloads"},
	{"workloads.build_ms", "ms", "lower", "setup_s everywhere; wall_s on figure-tables", "chunk_ms_*"},
	{"program.clone_ms", "ms", "lower", "setup_s everywhere; wall_s on figure-tables", "chunk_ms_*"},
	{"program.clone_bytes", "bytes", "lower", "setup_s everywhere; wall_s on figure-tables", "chunk_ms_*"},
	{"telemetry.overhead_frac", "fraction", "lower", "no end-to-end metric; the always-on tracer must keep it under 0.05", "all"},
	{"runtime.allocs_per_minstr", "count", "lower", "wall_s, setup_s, peak_rss_mb on figure-tables", "exact-long"},
	{"runtime.alloc_bytes_per_minstr", "bytes", "lower", "wall_s, setup_s, peak_rss_mb on figure-tables", "exact-long"},
	{"runtime.gc_cpu_frac", "fraction", "lower", "wall_s on figure-tables", "exact-long"},
	{"runtime.gc_pause_ms", "ms", "lower", "wall_s on figure-tables", "exact-long"},
	{"bench.span_overhead_frac", "fraction", "lower", "none: the traced-minus-untraced wall_s of this benchmark's own spans", "all"},
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}
