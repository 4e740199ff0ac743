package sampling

import (
	"math"

	"tridentsp/internal/core"
)

// Interval records one detailed window: its position in program progress,
// and the field-wise delta of core.Results across it (as a flattened vector,
// see resvec.go). These are the samples the
// stratified estimator and the error bars are computed from, and the rows
// tracestats renders as a phase timeline.
type Interval struct {
	// Start and End are total program progress (detailed + fast-forwarded
	// original instructions) at the window's edges.
	Start uint64
	End   uint64
	// Vec is the flattened Results delta across the window.
	Vec []float64
	// Phase is set when this window's signals flagged a phase change,
	// forcing the next interval detailed.
	Phase bool
}

// Instrs is the window's detailed instruction count.
func (iv *Interval) Instrs() uint64 { return iv.End - iv.Start }

// Res materializes the window's Results delta. Only flow counters are
// meaningful (strings, ratios, and level fields are zero).
func (iv *Interval) Res() core.Results {
	var r core.Results
	unflatten(&r, iv.Vec)
	return r
}

// Estimate is a sampled run's outcome: the measured detailed aggregate, the
// extrapolated full-run Results, and per-metric 95% error bars.
type Estimate struct {
	// Sampled is the extrapolated full-run Results. Each detailed window's
	// counter deltas are scaled over the window's stratum — the progress
	// from its start to the next window's start — so a window extrapolates
	// exactly the gap it stands in for, and the startup prefix (strata of
	// width one window) contributes at scale 1 instead of polluting the
	// steady-state estimate. Level fields (code-cache size, live traces)
	// and ratios stay as measured.
	Sampled core.Results
	// Raw is the unscaled Results — detailed-interval work only. In
	// window-chained runs the integer counters are the startup prefix plus
	// every committed window's delta; levels, ratios, and strings come from
	// the last committed chain's machine.
	Raw core.Results

	// Total is final program progress; DetailedInstrs and FFwdInstrs split
	// it into sampled mass and functional skip.
	Total          uint64
	DetailedInstrs uint64
	FFwdInstrs     uint64

	// Intervals counts detailed windows; PhaseExtras how many of them were
	// phase-triggered rather than grid- or startup-scheduled.
	Intervals   int
	PhaseExtras int

	// SpecWaste counts speculative windows executed but discarded because
	// the replayed serial schedule never reached their slot. It is the one
	// jobs-dependent output (always zero at -sample-jobs=1) and is excluded
	// from cross-jobs identity comparisons for exactly that reason.
	SpecWaste int

	// ROIHits/ROIMisses count region-of-interest checkpoint reuse (zero
	// without a cache).
	ROIHits   int
	ROIMisses int

	// Err maps metric name ("ipc", "coverage", "accuracy") to the relative
	// half-width of its 95% confidence interval, computed from the spread
	// of per-interval values. 1 means too few samples to say anything.
	Err map[string]float64
}

// Estimate extrapolates the run so far. Master-only runs (the budget, a
// halt, or an abort landed inside the startup prefix) read the master
// machine directly and are exact. Window-chained runs assemble Raw from the
// startup snapshot's Results plus every committed window delta — the
// per-chain machines are gone by now; their windows are the record.
func (s *Scheduler) Estimate() Estimate {
	var est Estimate
	if !s.windowed {
		raw := s.sys.Results()
		est = Estimate{
			Raw:            raw,
			Sampled:        raw,
			Total:          s.sys.Progress(),
			DetailedInstrs: raw.OrigInstrs,
			FFwdInstrs:     s.sys.FFwdInstrs(),
		}
	} else {
		total := s.totalRan
		if s.haltSeen {
			total = s.haltAt
		} else if s.err != nil || s.stopped || s.lastRes.Aborted != "" {
			total = s.lastEnd
		}
		raw := s.lastRes
		acc := flatten(&s.s0Res)
		for i := s.nStartupIvs; i < len(s.intervals); i++ {
			vecAccum(acc, s.intervals[i].Vec, 1)
		}
		unflatten(&raw, acc)
		est = Estimate{
			Raw:            raw,
			Sampled:        raw,
			Total:          total,
			DetailedInstrs: raw.OrigInstrs,
			FFwdInstrs:     total - raw.OrigInstrs,
		}
	}
	est.Intervals = len(s.intervals)
	est.PhaseExtras = s.phaseExtras
	est.SpecWaste = s.specWaste
	est.Err = errorBars(s.intervals)
	if s.roi != nil {
		est.ROIHits, est.ROIMisses = s.roi.Stats()
	}
	if len(s.intervals) == 0 || est.FFwdInstrs == 0 {
		return est // fully detailed: the measurement is exact
	}
	est.Sampled = extrapolate(est.Raw, s.intervals, est.Total)
	return est
}

// extrapolate scales each interval's counter deltas over its stratum (its
// start to the next interval's start, or the run's end for the last one).
// Intervals must be in ascending start order — the scheduler commits them
// that way regardless of execution order.
func extrapolate(raw core.Results, intervals []Interval, total uint64) core.Results {
	acc := make([]float64, len(intervals[0].Vec))
	for i := range intervals {
		iv := &intervals[i]
		end := total
		if i+1 < len(intervals) {
			end = intervals[i+1].Start
		}
		instrs := iv.Instrs()
		if instrs == 0 {
			continue
		}
		vecAccum(acc, iv.Vec, float64(end-iv.Start)/float64(instrs))
	}
	sampled := raw
	unflatten(&sampled, acc)
	// Progress is known exactly, and levels are not flows.
	sampled.OrigInstrs = total
	sampled.CodeCacheBytes = raw.CodeCacheBytes
	sampled.LiveTraces = raw.LiveTraces
	return sampled
}

// PrefetchAccuracy is the useful-prefetch fraction a validation figure
// compares between exact and sampled runs: 1 - wasted/issued software
// prefetches (vacuously 1 when none were issued).
func PrefetchAccuracy(r core.Results) float64 {
	issued := r.Mem.PrefetchesIssued
	if issued == 0 {
		return 1
	}
	return 1 - float64(r.Mem.WastedPrefetches)/float64(issued)
}

// errorBars computes the relative 95% confidence half-width of each
// reported metric from the spread of its per-interval values, each interval
// weighted by its share of the metric's denominator (the standard ratio-
// estimator treatment: intervals are the samples).
func errorBars(intervals []Interval) map[string]float64 {
	ipcX := make([]float64, 0, len(intervals))
	ipcW := make([]float64, 0, len(intervals))
	covX := make([]float64, 0, len(intervals))
	covW := make([]float64, 0, len(intervals))
	accX := make([]float64, 0, len(intervals))
	accW := make([]float64, 0, len(intervals))
	for i := range intervals {
		r := intervals[i].Res()
		if r.Cycles > 0 {
			ipcX = append(ipcX, float64(r.OrigInstrs)/float64(r.Cycles))
			ipcW = append(ipcW, float64(r.Cycles))
		}
		if r.MissesTotal > 0 {
			covX = append(covX, float64(r.MissesCovered)/float64(r.MissesTotal))
			covW = append(covW, float64(r.MissesTotal))
		}
		if r.Mem.PrefetchesIssued > 0 {
			accX = append(accX, 1-float64(r.Mem.WastedPrefetches)/float64(r.Mem.PrefetchesIssued))
			accW = append(accW, float64(r.Mem.PrefetchesIssued))
		}
	}
	return map[string]float64{
		"ipc":      relCI(ipcX, ipcW),
		"coverage": relCI(covX, covW),
		"accuracy": relCI(accX, accW),
	}
}

// relCI returns the 95% confidence half-width of the weighted mean of xs,
// relative to that mean (absolute when the mean is zero; 1 when fewer than
// two samples exist).
func relCI(xs, ws []float64) float64 {
	if len(xs) < 2 {
		return 1
	}
	var sw, sx float64
	for i, w := range ws {
		sw += w
		sx += w * xs[i]
	}
	if sw == 0 {
		return 1
	}
	mean := sx / sw
	var v float64
	for i, w := range ws {
		d := xs[i] - mean
		v += w * d * d
	}
	v /= sw
	ci := 1.96 * math.Sqrt(v/float64(len(xs)))
	if mean != 0 {
		return ci / math.Abs(mean)
	}
	return ci
}
