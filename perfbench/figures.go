package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"tridentsp/internal/core"
	"tridentsp/internal/exp"
	"tridentsp/internal/workloads"
)

// figure-tables: regenerate fig2, fig5 and fig9 at full scale through the
// experiment harness, with the pool as wide as the host. About 140
// short-lived systems per pass, so set-up, program cloning, allocation/GC
// and the pool carry a large share; 4x4/8x8 stream buffers and every
// software-prefetch mode run, hwpref never does.

// figInstrs is the exp package's default per-run budget, passed explicitly
// so the simulated-instruction count below is known.
const figInstrs = 5_000_000

var figIDs = []string{"fig2", "fig5", "fig9"}

// figRunsPerKernel is how many simulator runs each figure makes per kernel
// (fig2: none/4x4/8x8; fig5: 8x8 baseline plus three software modes; fig9:
// none/8x8/software-only).
var figRunsPerKernel = map[string]int{"fig2": 3, "fig5": 4, "fig9": 3}

type figureTables struct {
	rng     *rand.Rand
	kernels []string
	ref     map[string]string
	// Checked outputs of the last pass.
	ipc88, selfRepair float64
	figSecs           map[string][]float64
	failedTasks       int
	passNo            int
}

func newFigureTables(seed uint64) *figureTables {
	var ks []string
	for _, bm := range workloads.All() {
		ks = append(ks, bm.Name)
	}
	return &figureTables{
		rng:     rand.New(rand.NewSource(int64(seed))),
		kernels: ks,
		figSecs: map[string][]float64{},
	}
}

func (w *figureTables) name() string   { return "figure-tables" }
func (w *figureTables) setupReps() int { return 5 }

// setup builds all fourteen programs and one paper-machine system for each.
// Rep 0 populates the workloads package's master cache the experiment
// harness clones from; later reps build uncached.
func (w *figureTables) setup(e *env, rep int) error {
	for _, k := range w.kernels {
		p, err := buildProgram(e.tr, k, rep == 0)
		if err != nil {
			return err
		}
		e.tr.do("core.new_system", k, -1, func() { core.NewSystem(core.DefaultConfig(), p) })
	}
	return nil
}

// reference renders the three tables on the reference one-step engine.
func (w *figureTables) reference(e *env) error {
	ref, err := get(e.refs, fmt.Sprintf("figure-tables-i%d", figInstrs), func() (map[string]string, error) {
		out := map[string]string{}
		for _, id := range figIDs {
			x, _ := exp.ByID(id)
			t := x.Run(exp.Options{Instrs: figInstrs, Jobs: e.jobs, DisableFastPath: true})
			if err := tableHealthy(t); err != nil {
				return nil, fmt.Errorf("reference %s: %w", id, err)
			}
			out[id] = t.Render()
		}
		return out, nil
	})
	w.ref = ref
	return err
}

// tableHealthy rejects a table with failed runs or holes.
func tableHealthy(t exp.Table) error {
	if len(t.Failures) > 0 {
		return fmt.Errorf("%d failed runs (first: %s: %s)", len(t.Failures), t.Failures[0].Label, t.Failures[0].Err)
	}
	for _, r := range t.Rows {
		for _, c := range r.Cells {
			if math.IsNaN(c) {
				return fmt.Errorf("hole in row %s", r.Label)
			}
		}
	}
	return nil
}

// pass regenerates the three figures in an order drawn from the seed. A
// figure is one op and one part of the pass. Each figure submits its
// kernels in the paper's order: permuting the pool's submission order would
// change how much of the pool idles at a figure's tail, a cost that varies
// with the seed rather than with the code.
func (w *figureTables) pass(e *env, tr *tracer, _ time.Time, _ bool) passResult {
	pr := newPassResult(len(figIDs))
	w.passNo++
	root := tr.begin("bench.pass", fmt.Sprintf("figure-tables#%d", w.passNo), -1)
	defer tr.end(root)
	for _, fi := range w.rng.Perm(len(figIDs)) {
		id := figIDs[fi]
		var t exp.Table
		start := time.Now()
		err := tr.doErr("exp."+id, id, root, func() error {
			var err error
			t, err = runFigure(id, exp.Options{Instrs: figInstrs, Jobs: e.jobs})
			return err
		})
		secs := time.Since(start).Seconds()
		pr.parts[fi] = secs
		pr.ops++
		if err == nil {
			w.failedTasks += len(t.Failures)
			err = tableHealthy(t)
		}
		if err == nil && t.Render() != w.ref[id] {
			err = fmt.Errorf("%s: table differs from the reference engine's", id)
		}
		if err != nil {
			pr.fail(err)
			continue
		}
		if !tr.enabled() {
			w.figSecs[id] = append(w.figSecs[id], secs)
		}
		pr.instrs += uint64(len(t.Rows)-1) * uint64(figRunsPerKernel[id]) * figInstrs
		avg := t.Rows[len(t.Rows)-1].Cells
		switch id {
		case "fig2":
			w.ipc88 = avg[2]
		case "fig5":
			w.selfRepair = avg[2]
		}
	}
	pr.complete = true
	return pr
}

// runFigure runs one experiment, turning a panic into an error.
func runFigure(id string, o exp.Options) (t exp.Table, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("%s panicked: %v", id, p)
		}
	}()
	x, ok := exp.ByID(id)
	if !ok {
		return t, fmt.Errorf("unknown experiment %q", id)
	}
	return x.Run(o), nil
}

func (w *figureTables) simIPC() float64 { return w.ipc88 }

func (w *figureTables) details([]passResult) map[string]metricValue {
	return map[string]metricValue{
		"selfrepair_speedup": {w.selfRepair, "x"},
	}
}

// layer reports the exp.* metrics from this workload's own untraced passes.
func (w *figureTables) layer() map[string]float64 {
	return map[string]float64{
		"exp.fig2_s":       median(w.figSecs["fig2"]),
		"exp.fig5_s":       median(w.figSecs["fig5"]),
		"exp.fig9_s":       median(w.figSecs["fig9"]),
		"exp.failed_tasks": float64(w.failedTasks),
	}
}
