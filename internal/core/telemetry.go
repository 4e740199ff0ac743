package core

import (
	"tridentsp/internal/telemetry"
)

// This file owns the system's telemetry spine (DESIGN §11): construction of
// the tracer + registry pair, the fast-path exit-reason counters, and the
// end-of-run metric snapshot. Everything here is off unless Config.Telemetry
// is set; a nil tracer costs one branch per would-be emission.

// initTelemetry builds the tracer and pre-registers the counters the hot
// path increments directly (registry lookups involve a map access, so the
// fast path holds *Counter values instead).
func (s *System) initTelemetry(opts telemetry.Options) {
	s.tel = telemetry.New(opts)
	reg := s.tel.Metrics()
	for r := telemetry.FPReason(0); r < telemetry.NumFPReasons; r++ {
		s.fpReasons[r] = reg.Counter("fastpath_exit_" + r.String())
	}
}

// Telemetry returns the system's tracer (nil when telemetry is off).
// Callers export events and metrics through it; Results deliberately does
// not grow telemetry fields, so differential tests keep comparing it.
func (s *System) Telemetry() *telemetry.Tracer { return s.tel }

// snapshotMetrics publishes the end-of-run statistics into the registry as
// gauges, so one metrics export carries both the hot-path counters and the
// summary numbers without Results growing fields. Called from results();
// re-running it just overwrites the gauges with fresher values.
func (s *System) snapshotMetrics() {
	reg := s.tel.Metrics()
	g := func(name string, v float64) { reg.Gauge(name).Set(v) }
	u := func(name string, v uint64) { g(name, float64(v)) }

	g("cycles", float64(s.thread.Now()))
	u("orig_instrs", s.origInstrs)
	u("ffwd_instrs", s.ffwdInstrs)
	u("committed_instrs", s.thread.Committed())

	m := &s.hier.Stats
	u("mem_loads", m.Loads)
	u("mem_stores", m.Stores)
	u("mem_l1_hits", m.L1Hits)
	u("mem_l2_hits", m.L2Hits)
	u("mem_l3_hits", m.L3Hits)
	u("mem_accesses", m.MemAccesses)
	u("mem_l1_misses", m.L1Misses())
	u("prefetches_issued", m.PrefetchesIssued)
	u("prefetches_redundant", m.PrefetchesRedundant)
	u("prefetches_dropped", m.PrefetchesDropped)
	u("wasted_prefetches", m.WastedPrefetches)
	g("total_load_latency", float64(m.TotalLoadLatency))
	g("total_miss_latency", float64(m.TotalMissLatency))

	lb := s.live.BlockStats()
	cb := s.cache.BlockStats()
	u("blockcache_rebuilds", lb.Rebuilds+cb.Rebuilds)
	u("blockcache_invalidations", lb.Invalidations+cb.Invalidations)

	// Engine residency (DESIGN §13). Engine-class: which tier
	// retired an instruction is path-dependent by nature, so these live in
	// the registry only and never migrate into Results.
	u("jit_compiles", lb.Compiles+cb.Compiles)
	u("jit_revalidations", lb.Revalidations+cb.Revalidations)
	for i, ts := range s.tiers {
		u("tier_"+tierNames[i]+"_instrs", ts.instrs)
		u("tier_"+tierNames[i]+"_cycles", ts.cycles)
	}

	u("traces_formed", s.stats.tracesFormed)
	u("traces_backed_out", s.stats.tracesBackedOut)
	u("traces_specialized", s.stats.tracesSpecialized)
	u("phase_clears", s.stats.phaseClears)
	u("apply_errors", s.stats.applyErrors)
	u("trace_traversals", s.stats.traceTraversal)
	u("misses_total", s.stats.missesTotal)
	u("misses_in_trace", s.stats.missesInTrace)
	u("misses_covered", s.stats.missesCovered)

	if s.cfg.Trident {
		g("helper_active_cycles", float64(s.helper.ActiveCycles))
		u("helper_invocations", s.helper.Invocations)
		u("helper_preemptions", s.helper.Preemptions)
		u("events_raised", s.queue.Raised)
		u("events_dropped", s.queue.Dropped)
		u("dlt_events", s.table.Events)
		u("dlt_evictions", s.table.Evictions)
		g("codecache_bytes", float64(s.cache.Size()))
		g("live_traces", float64(s.cache.LiveTraces()))
	}
	if s.hwp != nil {
		u("hwpref_rounds", s.hwp.Rounds())
		u("hwpref_switches", s.hwp.Switches())
		u("hwpref_decisions", s.hwp.DecisionCount())
		res := s.hwp.Residency()
		for i, name := range s.hwp.Names() {
			st := s.hwp.EngineStatsAt(i)
			u("hwpref_"+name+"_fills", st.Fills)
			u("hwpref_"+name+"_supplies", st.Supplies)
			u("hwpref_"+name+"_evicted_unused", st.EvictedUnused)
			u("hwpref_"+name+"_resident_loads", res[i])
		}
	}
	if s.opt != nil {
		u("prefetch_insertions", s.opt.Stats.Insertions)
		u("prefetch_repairs", s.opt.Stats.Repairs)
		u("prefetch_matured", s.opt.Stats.Matured)
		u("prefetches_placed", s.opt.Stats.PrefetchesPlaced)
		u("deref_chains_placed", s.opt.Stats.DerefChainsPlaced)
	}
	if s.chaosRun != nil {
		u("chaos_faults", s.chaosRun.Applied)
	}
	if s.monitor != nil {
		u("watchdog_probes", s.monitor.Ticks())
		u("invariant_violations", uint64(len(s.monitor.Violations())))
	}
}
