package main

import (
	"encoding/json"
	"math"
	"os"
	"reflect"
	"testing"

	"tridentsp/internal/exp"
	"tridentsp/internal/workloads"
)

func TestPercentileTailRule(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1) // 1..100
	}
	v, beyond := percentile(xs, 90)
	if v != 90 || beyond != 10 {
		t.Fatalf("p90 of 1..100 = %v with %d beyond, want 90 with 10", v, beyond)
	}
	if v, beyond := percentile(xs[:99], 90); beyond >= minBeyond {
		t.Fatalf("p90 of 99 samples = %v with %d beyond: must not qualify for reporting", v, beyond)
	}
	if v, _ := percentile(xs, 50); v != 50 {
		t.Fatalf("p50 = %v, want 50", v)
	}
	// Ties at the percentile value are not beyond it.
	ties := []float64{1, 2, 2, 2, 3}
	if v, beyond := percentile(ties, 50); v != 2 || beyond != 1 {
		t.Fatalf("p50 of %v = %v with %d beyond, want 2 with 1", ties, v, beyond)
	}
	if v, _ := percentile(nil, 50); !math.IsNaN(v) {
		t.Fatalf("percentile of nothing = %v, want NaN", v)
	}
}

func TestMedianAndGeomean(t *testing.T) {
	if m := median([]float64{3, 1, 2}); m != 2 {
		t.Fatalf("median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("median = %v", m)
	}
	if g := geomean([]float64{1, 4}); g != 2 {
		t.Fatalf("geomean = %v", g)
	}
	if g := geomean([]float64{1, 0}); !math.IsNaN(g) {
		t.Fatalf("geomean with a zero = %v, want NaN", g)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{Name: "bench.pass", Start: 0, End: 10, Parent: -1},
		{Name: "core.run_chunk", Start: 1, End: 3, Parent: 0},
		{Name: "core.run_chunk", Start: 2, End: 5, Parent: 0}, // overlaps its sibling
		{Name: "exp.fig2", Start: 8, End: 12, Parent: 0},      // runs past the parent
		{Name: "memsys.replay", Start: 2, End: 3, Parent: 2},
		{Name: "open", Start: 4, End: -1, Parent: -1},
	}
	got := selfTimes(spans)
	want := []int64{10 - (4 + 2), 2, 3 - 1, 4, 1, 0}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("self times = %v, want %v", got, want)
	}
	byLayer := selfBy(spans, span.layer)
	if byLayer["core"] != 4e-9 || byLayer["bench"] != 4e-9 {
		t.Fatalf("self by layer = %v", byLayer)
	}
}

func TestNilTracerRecordsNothing(t *testing.T) {
	var tr *tracer
	i := tr.begin("x", "r", -1)
	tr.end(i)
	ran := false
	tr.do("y", "r", i, func() { ran = true })
	if !ran || tr.snapshot() != nil || tr.enabled() {
		t.Fatal("nil tracer must run the function and record nothing")
	}
}

func TestEndToEndSumsPartMedians(t *testing.T) {
	pass := func(traced bool, parts ...float64) passResult {
		p := newPassResult(len(parts))
		copy(p.parts, parts)
		p.complete, p.traced, p.instrs, p.peakRSS = true, traced, 6e6, 2e6
		return p
	}
	passes := []passResult{
		pass(false, 1, 10),
		pass(false, 3, 20),
		pass(false, 2, 90), // a slow second part in one pass
		pass(true, 100, 100),
		{parts: []float64{0, 0}}, // incomplete: ignored
	}
	m := endToEnd(passes, false)
	if m["wall_s"] != 2+20 {
		t.Fatalf("wall_s = %v, want 22", m["wall_s"])
	}
	if m["sim_minstrs_per_s"] != 6.0/22 {
		t.Fatalf("sim_minstrs_per_s = %v", m["sim_minstrs_per_s"])
	}
	if m["peak_rss_mb"] != 2 {
		t.Fatalf("peak_rss_mb = %v", m["peak_rss_mb"])
	}
	if endToEnd(passes, true)["wall_s"] != 200 {
		t.Fatal("traced passes must be measured apart from untraced ones")
	}
}

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	check := func(name, unit, better string) {
		if !validName(name) || !validUnit(unit) {
			t.Errorf("metric %q unit %q outside the allowed charset", name, unit)
		}
		if better != "lower" && better != "higher" {
			t.Errorf("metric %q: better = %q", name, better)
		}
		if seen[name] {
			t.Errorf("metric %q defined twice", name)
		}
		seen[name] = true
	}
	for _, d := range e2eMetrics {
		check(d.Name, d.Unit, d.Better)
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	for _, d := range layerMetrics {
		check(d.Name, d.Unit, d.Better)
	}
	for _, bad := range []string{"", "_x", "a b", "a/b", "é", string(make([]byte, 65))} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}
	for _, good := range []string{"wall_s", "cpu.step_ns_per_instr", "9-x"} {
		if !validName(good) {
			t.Errorf("validName(%q) = false", good)
		}
	}
	if validUnit("12345678901234567") || !validUnit("Minstr/s") || !validUnit("%") {
		t.Error("unit charset/length check is wrong")
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json in step with the registry and
// within the limits its consumers enforce.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var top map[string]json.RawMessage
	if err := json.Unmarshal(b, &top); err != nil {
		t.Fatal(err)
	}
	var keys []string
	for k := range top {
		keys = append(keys, k)
	}
	if len(top) != 6 {
		t.Fatalf("top-level keys %v, want exactly command, paths, run_seconds, workloads, end_to_end, per_layer", keys)
	}
	var bj struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.EndToEnd) != len(e2eMetrics) || len(bj.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d/%d metrics, registry %d/%d",
			len(bj.EndToEnd), len(bj.PerLayer), len(e2eMetrics), len(layerMetrics))
	}
	for i, d := range e2eMetrics {
		m := bj.EndToEnd[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better || m.Bound != d.Bound {
			t.Errorf("end_to_end[%d] = %+v, registry %+v", i, m, d)
		}
	}
	for i, d := range layerMetrics {
		m := bj.PerLayer[i]
		if m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("per_layer[%d] = %+v, registry %+v", i, m, d)
		}
	}
	if len(bj.Workloads) < 2 || len(bj.Workloads) > 8 {
		t.Errorf("%d workloads", len(bj.Workloads))
	}
	for _, w := range bj.Workloads {
		if _, ok := newWorkload(w.Name, 1); !ok || !validName(w.Name) || w.Why == "" || len(w.Why) > 200 {
			t.Errorf("workload %+v", w)
		}
	}
	if bj.RunSeconds < 1 || bj.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", bj.RunSeconds)
	}
	if !reflect.DeepEqual(bj.Paths, []string{"perfbench"}) || len(bj.Command) == 0 {
		t.Errorf("paths %v command %v", bj.Paths, bj.Command)
	}
}

// TestTableHealthy: a hole or a failed pool task fails the op.
func TestTableHealthy(t *testing.T) {
	ok := exp.Table{Rows: []exp.Row{{Label: "mcf", Cells: []float64{1, 2}}}}
	if err := tableHealthy(ok); err != nil {
		t.Fatal(err)
	}
	hole := exp.Table{Rows: []exp.Row{{Label: "mcf", Cells: []float64{1, math.NaN()}}}}
	if tableHealthy(hole) == nil {
		t.Fatal("a table hole passed")
	}
	failed := ok
	failed.Failures = []exp.Failure{{Label: "mcf/8x8", Attempts: 1, Err: "panic"}}
	if tableHealthy(failed) == nil {
		t.Fatal("a failed task passed")
	}
}

// TestReplaySelfCheck: a recorded stream replays to the recorded statistics,
// and a corrupted one is caught.
func TestReplaySelfCheck(t *testing.T) {
	for _, in := range []exactInput{exactInputs[1], exactInputs[3]} {
		rec := record(in, workloads.Mcf(workloads.ScaleTest), 50_000)
		if rec.loads == 0 {
			t.Fatalf("%s: no loads recorded", in.label)
		}
		if _, err := rec.check(); err != nil {
			t.Fatalf("%s: %v", in.label, err)
		}
		for i := range rec.ops {
			if rec.ops[i].kind == opLoad {
				rec.ops[i].addr += 1 << 20 // a different line
				break
			}
		}
		if _, err := rec.check(); err == nil {
			t.Fatalf("%s: corrupted stream passed the self-check", in.label)
		}
	}
}
