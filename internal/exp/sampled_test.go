package exp

import (
	"math"
	"reflect"
	"testing"
	"time"

	"tridentsp/internal/core"
	"tridentsp/internal/workloads"
)

// The differential suite for sampled mode (DESIGN §14): every workload runs
// exact and sampled to the same budget, and the extrapolated results must
// land within the estimator's own error bars (or a floor tolerance — with a
// handful of intervals the spread estimate itself is noisy). Determinism
// across worker counts rides along: the same table must come out at any -j.

// diffOptions is the differential scale: big enough that the optimizer's
// startup transient is behind the sampling schedule (SampleConfig caps the
// startup prefix at half the budget), small enough that 14 workloads × two
// modes stay test-sized.
func diffOptions() Options {
	return Options{Scale: workloads.ScaleTest, Instrs: 3_000_000}
}

func TestSampledDifferentialSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("full-suite differential")
	}
	tb := SampleVal(diffOptions())
	if len(tb.Failures) > 0 {
		t.Fatalf("failed runs: %+v", tb.Failures)
	}
	if n := len(tb.Rows); n != 15 { // 14 workloads + average
		t.Fatalf("rows = %d, want 15", n)
	}
	for _, r := range tb.Rows {
		if r.Label == "average" {
			continue
		}
		cells := r.Cells // see SampleVal's column order
		ipcErr, covErr, accErr, ipcCI := cells[2], cells[5], cells[8], cells[9]
		for i, v := range cells {
			if math.IsNaN(v) {
				t.Errorf("%s: cell %d is a hole", r.Label, i)
			}
		}
		// Within the reported error bars, floored: sub-percent CIs from a
		// handful of intervals are not sharp enough to gate on alone.
		if tol := math.Max(ipcCI, 5); ipcErr > tol {
			t.Errorf("%s: ipc err %.2f%% exceeds max(CI %.2f%%, 5%%)", r.Label, ipcErr, ipcCI)
		}
		if covErr > 10 {
			t.Errorf("%s: coverage err %.2f%% exceeds 10%%", r.Label, covErr)
		}
		if accErr > 10 {
			t.Errorf("%s: accuracy err %.2f%% exceeds 10%%", r.Label, accErr)
		}
	}
}

// TestSampledJobsDeterminism: sampled tables are byte-identical at any
// worker count, like exact ones (each run owns a private system; the pool
// assembles rows in submission order).
func TestSampledJobsDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the sampled suite twice")
	}
	o := diffOptions()
	o.Benchmarks = []string{"mcf", "swim", "parser", "dot"}
	o.Jobs = 1
	serial := SampleVal(o)
	o.Jobs = 8
	wide := SampleVal(o)
	if !reflect.DeepEqual(serial, wide) {
		t.Fatalf("sampled table differs across -j\n-- j=1 --\n%s-- j=8 --\n%s",
			serial.Render(), wide.Render())
	}
}

// TestSampledSampleJobsDeterminism: the table is also byte-identical at any
// -sample-jobs (DESIGN §15) — the window scheduler fans detailed-window
// chains across workers but the reconciler consumes them in slot order, so
// the extrapolated estimate every cell is computed from never depends on the
// fan-out width. This is the table-level leg of the byte-identity contract;
// the scheduler-level leg (estimates, intervals, events) lives in
// internal/sampling.
func TestSampledSampleJobsDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the sampled suite three times")
	}
	o := diffOptions()
	o.Benchmarks = []string{"mcf", "swim", "parser", "dot"}
	var tables []Table
	for _, sj := range []int{1, 2, 8} {
		o.SampleJobs = sj
		tables = append(tables, SampleVal(o))
	}
	for i, sj := range []int{2, 8} {
		if !reflect.DeepEqual(tables[0], tables[i+1]) {
			t.Errorf("sampled table differs across -sample-jobs\n-- jobs=1 --\n%s-- jobs=%d --\n%s",
				tables[0].Render(), sj, tables[i+1].Render())
		}
	}
}

// TestSampledFigureSmoke: any figure runs under Options.Sampled (the
// controller path replaces every run); exact mode stays the default.
func TestSampledFigureSmoke(t *testing.T) {
	o := QuickOptions()
	o.Instrs = 600_000
	o.Benchmarks = []string{"mcf"}
	o.Sampled = true
	tb := Figure4(o)
	if len(tb.Failures) > 0 {
		t.Fatalf("failed runs: %+v", tb.Failures)
	}
	for _, r := range tb.Rows {
		for i, v := range r.Cells {
			if math.IsNaN(v) {
				t.Errorf("%s: cell %d is a hole", r.Label, i)
			}
		}
	}
}

// TestSampledRunResumesFromMemo drives the pool's retry path by hand: the
// first attempt is stopped as soon as it has published a commit-point
// snapshot to its memo, and the retry resumes the window schedule from
// that memo. The resumed estimate must equal an unbroken run's — the
// property that makes retries worth keeping for sampled runs.
func TestSampledRunResumesFromMemo(t *testing.T) {
	o := QuickOptions()
	o.Instrs = 2_000_000
	bm, _ := workloads.ByName("mcf")
	cfg := core.DefaultConfig()
	want := sampledRun(bm, cfg, o, nil, nil)

	m := &memo{}
	stop := make(chan struct{})
	go func() {
		for m.load() == nil {
			time.Sleep(time.Millisecond)
		}
		close(stop)
	}()
	broken := sampledRun(bm, cfg, o, stop, m)
	if broken.Total >= want.Total {
		t.Fatalf("stop did not interrupt the first attempt (progress %d of %d)", broken.Total, want.Total)
	}
	if got := sampledRun(bm, cfg, o, nil, m); !reflect.DeepEqual(got, want) {
		t.Errorf("resumed estimate differs:\nresumed:  %+v\nunbroken: %+v", got, want)
	}
}
